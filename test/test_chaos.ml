(* Chaos-smoke suite: the reliable transport (Rpc), the heartbeat
   failure detector, and both protocols under seeded loss, partitions
   and churn.  Small n and short horizons keep it inside the normal
   `dune runtest` budget; the full-scale sweep lives in `bench chaos`. *)

module Engine = Sim.Engine
module Network = Sim.Network
module Rpc = Sim.Rpc
module Fd = Sim.Failure_detector
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rpc: at-most-once, eventual delivery, dead letters ------------- *)

(* A minimal Rpc-only node: payloads are ints, deliveries are logged. *)
let make_rpc_world ?(loss = 0.0) ?(seed = 3) ?(max_attempts = 6) ~nodes () =
  let delivered = ref [] in
  let network = Network.create ~loss () in
  let engine = Engine.create ~seed ~nodes ~network () in
  let rpc = Rpc.create engine ~max_attempts () in
  Engine.set_handlers engine
    {
      on_message =
        (fun _ ~node ~src m ->
          Rpc.on_message rpc ~node ~src m ~deliver:(fun ~src payload ->
              delivered := (src, node, payload) :: !delivered));
      on_timer =
        (fun _ ~node ~tag ->
          if not (Rpc.on_timer rpc ~node ~tag) then
            Alcotest.fail "unexpected non-rpc timer");
      on_crash = (fun _ ~node -> Rpc.on_crash rpc ~node);
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    };
  (rpc, engine, network, delivered)

let test_rpc_delivery_under_loss () =
  (* 30% iid loss (both directions): with 10 attempts every payload
     still arrives, exactly once, and no sender gives up. *)
  let rpc, engine, _net, delivered =
    make_rpc_world ~loss:0.3 ~max_attempts:10 ~nodes:4 ()
  in
  for i = 0 to 49 do
    Engine.schedule engine
      ~time:(float_of_int i *. 0.5)
      (fun () -> Rpc.send rpc ~src:(i mod 4) ~dst:((i + 1) mod 4) i)
  done;
  Engine.run engine;
  check_int "all delivered" 50 (List.length !delivered);
  let payloads = List.sort compare (List.map (fun (_, _, p) -> p) !delivered) in
  check "exactly once each" true (payloads = List.init 50 (fun i -> i));
  check_int "no dead letters" 0 (Rpc.dead_letters rpc);
  check "loss caused retransmissions" true (Rpc.retransmissions rpc > 0)

let test_rpc_no_duplicate_side_effects () =
  (* Force duplicates: drop only one direction so acks die and the
     sender keeps retransmitting an already-delivered payload. *)
  let rpc, engine, network, delivered = make_rpc_world ~nodes:2 () in
  (* acks from 1 back to 0 all die for a while *)
  Network.set_link_loss network ~src:1 ~dst:0 1.0;
  Rpc.send rpc ~src:0 ~dst:1 99;
  Engine.schedule engine ~time:9.0 (fun () ->
      Network.set_link_loss network ~src:1 ~dst:0 0.0);
  Engine.run engine;
  check_int "delivered exactly once" 1 (List.length !delivered);
  check "duplicates were suppressed" true (Rpc.duplicates_suppressed rpc > 0);
  check_int "eventually acked, no dead letter" 0 (Rpc.dead_letters rpc)

let test_rpc_dead_letter_on_partition () =
  (* A permanent cut: the sender must give up after max_attempts and
     hand the payload to the dead-letter handler. *)
  let rpc, engine, network, delivered =
    make_rpc_world ~nodes:2 ~max_attempts:4 ()
  in
  let dead = ref [] in
  Rpc.set_dead_letter_handler rpc (fun ~src ~dst payload ->
      dead := (src, dst, payload) :: !dead);
  ignore (Network.partition network ~group_a:[ 0 ]);
  Rpc.send rpc ~src:0 ~dst:1 7;
  Engine.run engine;
  check_int "nothing delivered" 0 (List.length !delivered);
  check_int "one dead letter" 1 (List.length !dead);
  check "handler got the payload" true (!dead = [ (0, 1, 7) ]);
  check_int "counter agrees" 1 (Rpc.dead_letters rpc);
  check_int "no inflight state leaked" 0 (Rpc.inflight_count rpc)

let test_rpc_stale_handle_after_down_send () =
  (* A send issued from a down node keeps its unacked state, and its
     retransmit timer fires while the node is still down, so no handler
     runs and the state keeps the handle of an event that has left the
     queue.  The events pushed next reuse that event's slot; when the
     node recovers and crashes again, dropping the send must not take
     any of them out of the queue. *)
  let rpc, engine, _net, delivered = make_rpc_world ~nodes:2 () in
  Engine.crash_at engine ~time:1.0 ~node:0;
  Engine.schedule engine ~time:2.0 (fun () -> Rpc.send rpc ~src:0 ~dst:1 5);
  let fired = ref 0 in
  Engine.schedule engine ~time:5.0 (fun () ->
      check_int "the down send is still unacked" 1 (Rpc.inflight_count rpc);
      for i = 1 to 20 do
        Engine.schedule engine ~time:(30.0 +. float_of_int i) (fun () ->
            incr fired)
      done);
  Engine.recover_at engine ~time:10.0 ~node:0;
  Engine.crash_at engine ~time:20.0 ~node:0;
  Engine.run engine;
  check_int "every other event dispatched" 20 !fired;
  check_int "the crash dropped the send" 0 (Rpc.inflight_count rpc);
  check_int "nothing delivered" 0 (List.length !delivered)

(* --- Failure detector: completeness and eventual accuracy ----------- *)

let make_fd_world ?(seed = 5) ~nodes () =
  let engine = Engine.create ~seed ~nodes () in
  let fd = Fd.create engine ~period:1.0 ~timeout:4.0 () in
  Engine.set_handlers engine
    {
      on_message = (fun _ ~node:_ ~src:_ () -> ());
      on_timer =
        (fun _ ~node ~tag ->
          (* non-fd tags are the tests' keep-alive timers *)
          ignore (Fd.on_timer fd ~node ~tag));
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node ~amnesia:_ -> Fd.on_recover fd ~node);
    };
  (fd, engine)

let test_fd_completeness_and_accuracy () =
  let fd, engine = make_fd_world ~nodes:5 () in
  (* node 3 crashes at t=10 and recovers at t=30 *)
  Engine.crash_at engine ~time:10.0 ~node:3;
  Engine.recover_at engine ~time:30.0 ~node:3;
  let at time f = Engine.schedule engine ~time f in
  at 9.0 (fun () ->
      check "trusted while alive" false (Fd.suspects fd ~node:0 3));
  (* completeness: suspected within timeout + period + latency *)
  at 17.0 (fun () ->
      check "crashed node suspected" true (Fd.suspects fd ~node:0 3);
      check_int "only node 3 suspected" 1 (Fd.suspected_count fd ~node:0);
      check "view excludes it" false (Quorum.Bitset.mem (Fd.view fd ~node:0) 3));
  (* eventual accuracy: trusted again within a period + latency *)
  at 34.0 (fun () ->
      check "recovered node trusted again" false (Fd.suspects fd ~node:0 3);
      check_int "nobody suspected" 0 (Fd.suspected_count fd ~node:0));
  (* a foreground timer keeps the run alive to t=35 *)
  Engine.set_timer engine ~node:0 ~delay:35.0 ~tag:0;
  Engine.run engine

let test_fd_partition_suspicion_heals () =
  let fd, engine = make_fd_world ~nodes:6 () in
  let network = Engine.network engine in
  let cut = ref None in
  let at time f = Engine.schedule engine ~time f in
  at 5.0 (fun () -> cut := Some (Network.partition network ~group_a:[ 0; 1 ]));
  at 15.0 (fun () ->
      (* both sides suspect each other... *)
      check "minority suspects far side" true (Fd.suspects fd ~node:0 4);
      check "majority suspects minority" true (Fd.suspects fd ~node:4 0);
      (* ...but nobody suspects their own side *)
      check "own side trusted" false (Fd.suspects fd ~node:0 1);
      match !cut with Some c -> Network.heal network c | None -> ());
  at 22.0 (fun () ->
      check "suspicion clears after heal" false (Fd.suspects fd ~node:0 4);
      check "reverse clears too" false (Fd.suspects fd ~node:4 0));
  Engine.set_timer engine ~node:0 ~delay:23.0 ~tag:0;
  Engine.run engine

(* --- Protocols under chaos scenarios -------------------------------- *)

let smoke_horizon = 120.0

let test_mutex_safe_under_every_scenario () =
  (* The acceptance bar: across loss, bursts, partition, churn and gray
     failures, zero safety violations — and under plain loss the
     protocol still serves every request. *)
  let system = Core.Registry.build_exn "htriang(10)" in
  List.iter
    (fun scenario ->
      let r =
        Protocols.Chaos.run_mutex ~seed:11 ~rate:0.3 ~system scenario
      in
      check_int (scenario.Protocols.Chaos.label ^ ": no violations") 0
        r.Protocols.Chaos.violations;
      check (scenario.Protocols.Chaos.label ^ ": made progress") true
        (r.Protocols.Chaos.entries > 0);
      check (scenario.Protocols.Chaos.label ^ ": within budget") false
        r.Protocols.Chaos.budget_hit)
    (Protocols.Chaos.standard ~n:10 ~horizon:smoke_horizon)

let test_mutex_full_service_under_loss () =
  let system = Core.Registry.build_exn "htriang(10)" in
  let scenario =
    Protocols.Chaos.
      {
        label = "loss .05";
        horizon = smoke_horizon;
        plan = { calm with loss = 0.05 };
      }
  in
  let r = Protocols.Chaos.run_mutex ~seed:13 ~rate:0.3 ~system scenario in
  check_int "all served" r.Protocols.Chaos.issued r.Protocols.Chaos.entries;
  check_int "no violations" 0 r.Protocols.Chaos.violations

let test_store_consistent_under_every_scenario () =
  let read_system = Core.Registry.build_exn "hgrid-read(3x3)" in
  let write_system = Core.Registry.build_exn "hgrid-write(3x3)" in
  List.iter
    (fun scenario ->
      let r, _ =
        Protocols.Chaos.run_store_h ~seed:17 ~rate:1.0 ~read_system
          ~write_system ~name:"hgrid-r/w(3x3)" scenario
      in
      check_int (scenario.Protocols.Chaos.label ^ ": no stale reads") 0
        r.Protocols.Chaos.stale_reads;
      check (scenario.Protocols.Chaos.label ^ ": reads complete") true
        (r.Protocols.Chaos.reads_ok > 0);
      check (scenario.Protocols.Chaos.label ^ ": writes complete") true
        (r.Protocols.Chaos.writes_ok > 0);
      check (scenario.Protocols.Chaos.label ^ ": within budget") false
        r.Protocols.Chaos.budget_hit)
    (Protocols.Chaos.standard ~n:9 ~horizon:smoke_horizon)

let test_store_loss_and_partition_acceptance () =
  (* The ISSUE acceptance scenario: 5% loss plus a transient partition;
     every completed read consistent, most ops complete. *)
  let system = Core.Registry.build_exn "majority(9)" in
  let scenario =
    Protocols.Chaos.
      {
        label = "acceptance";
        horizon = smoke_horizon;
        plan =
          {
            calm with
            loss = 0.05;
            partitions = [ (30.0, 25.0, [ 0; 1 ]) ];
          };
      }
  in
  let r, _ =
    Protocols.Chaos.run_store_h ~seed:19 ~rate:1.5 ~read_system:system
      ~write_system:system ~name:"majority(9)" scenario
  in
  check_int "no stale reads" 0 r.Protocols.Chaos.stale_reads;
  let ok = r.Protocols.Chaos.reads_ok + r.Protocols.Chaos.writes_ok in
  check "most ops complete" true (ok * 10 >= r.Protocols.Chaos.issued * 8)

let test_mutex_loss_and_partition_acceptance () =
  let system = Core.Registry.build_exn "majority(9)" in
  let scenario =
    Protocols.Chaos.
      {
        label = "acceptance";
        horizon = smoke_horizon;
        plan =
          {
            calm with
            loss = 0.05;
            partitions = [ (30.0, 25.0, [ 0; 1 ]) ];
          };
      }
  in
  let r = Protocols.Chaos.run_mutex ~seed:23 ~rate:0.3 ~system scenario in
  check_int "no violations" 0 r.Protocols.Chaos.violations;
  check "most requests served" true
    (r.Protocols.Chaos.entries * 10 >= r.Protocols.Chaos.issued * 7)

let test_chaos_runs_are_reproducible () =
  let system = Core.Registry.build_exn "htriang(10)" in
  let scenario =
    List.nth (Protocols.Chaos.standard ~n:10 ~horizon:smoke_horizon) 1
  in
  let a = Protocols.Chaos.run_mutex ~seed:29 ~system scenario in
  let b = Protocols.Chaos.run_mutex ~seed:29 ~system scenario in
  check "same seed, same report" true (a = b);
  let c = Protocols.Chaos.run_mutex ~seed:31 ~system scenario in
  check "different seed, different run" true (a <> c)

(* qcheck: rpc at-most-once delivery holds for arbitrary loss rates,
   seeds and message counts. *)
let rpc_at_most_once =
  QCheck.Test.make ~count:30 ~name:"rpc delivers at most once"
    QCheck.(triple (int_range 0 10_000) (float_range 0.0 0.5) (int_range 1 40))
    (fun (seed, loss, msgs) ->
      let rpc, engine, _net, delivered =
        make_rpc_world ~loss ~seed ~nodes:3 ()
      in
      for i = 0 to msgs - 1 do
        Engine.schedule engine
          ~time:(float_of_int i *. 0.3)
          (fun () -> Rpc.send rpc ~src:(i mod 3) ~dst:((i + 1) mod 3) i)
      done;
      Engine.run engine;
      let payloads =
        List.sort compare (List.map (fun (_, _, p) -> p) !delivered)
      in
      let distinct = List.sort_uniq compare payloads in
      let n_delivered = List.length payloads in
      (* at-most-once always; and every message was either delivered
         or dead-lettered (a dead letter may ALSO have been delivered:
         the data got through but its acks died, so >=, not =) *)
      List.length distinct = n_delivered
      && n_delivered <= msgs
      && n_delivered + Rpc.dead_letters rpc >= msgs)

let () =
  Alcotest.run "chaos"
    [
      ( "rpc",
        [
          Alcotest.test_case "delivery under loss" `Quick
            test_rpc_delivery_under_loss;
          Alcotest.test_case "no duplicate side-effects" `Quick
            test_rpc_no_duplicate_side_effects;
          Alcotest.test_case "dead letters" `Quick
            test_rpc_dead_letter_on_partition;
          Alcotest.test_case "stale handle after a down send" `Quick
            test_rpc_stale_handle_after_down_send;
          QCheck_alcotest.to_alcotest rpc_at_most_once;
        ] );
      ( "failure detector",
        [
          Alcotest.test_case "completeness + accuracy" `Quick
            test_fd_completeness_and_accuracy;
          Alcotest.test_case "partition suspicion" `Quick
            test_fd_partition_suspicion_heals;
        ] );
      ( "chaos smoke",
        [
          Alcotest.test_case "mutex: all scenarios safe" `Quick
            test_mutex_safe_under_every_scenario;
          Alcotest.test_case "mutex: full service at 5% loss" `Quick
            test_mutex_full_service_under_loss;
          Alcotest.test_case "store: all scenarios consistent" `Quick
            test_store_consistent_under_every_scenario;
          Alcotest.test_case "store: loss+partition acceptance" `Quick
            test_store_loss_and_partition_acceptance;
          Alcotest.test_case "mutex: loss+partition acceptance" `Quick
            test_mutex_loss_and_partition_acceptance;
          Alcotest.test_case "reproducible" `Quick
            test_chaos_runs_are_reproducible;
        ] );
    ]
