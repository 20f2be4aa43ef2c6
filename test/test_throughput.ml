(* Sessioned-client suite: windowed/batched sessions agree with
   sequential submission under chaos (same final register state, zero
   stale reads), batched fsyncs are crash-atomic per batch, the shard
   router partitions keys onto disjoint subquorums, session backlogs
   shed at the bound, and the throughput runner is deterministic with
   the hierarchical arms beating flat majority once n is large. *)

module Engine = Sim.Engine
module Network = Sim.Network
module Durable = Sim.Durable
module Store = Protocols.Replicated_store
module Session = Protocols.Replicated_store.Session
module Chaos = Protocols.Chaos
module Client_config = Protocols.Client_config
module Shard_router = Protocols.Shard_router
module Throughput = Protocols.Throughput
module Rng = Quorum.Rng
module Bitset = Quorum.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Windowed-vs-sequential equivalence (qcheck) --------------------- *)

(* One client conversation: the same op list submitted through a
   window-1 session one-at-a-time, and through a wide batched session
   all-at-once.  Per-key FIFO makes both apply each key's writes in
   submission order, so when every op completes the final register
   state must be identical — and equal to last-Put-wins computed
   directly from the op list. *)

let seed = 11
let n_keys = 4
let client = 3 (* outside the minority partition cut ([0]) for n = 6 *)

let test_system () = Core.Htriang.system (Core.Htriang.standard ~rows:3 ())

let loss_scenario =
  { Chaos.label = "loss"; horizon = 400.0; plan = { Chaos.calm with loss = 0.1 } }

let partition_scenario =
  {
    Chaos.label = "partition";
    horizon = 400.0;
    plan =
      { Chaos.calm with loss = 0.02; partitions = [ (10.0, 15.0, [ 0 ]) ] };
  }

(* ops are (key, is_put); values are assigned by position so both
   drivers submit byte-identical requests. *)
let requests ops =
  Array.of_list
    (List.mapi
       (fun i (key, is_put) ->
         if is_put then Store.Put { key; value = i + 1 } else Store.Get { key })
       ops)

let expected_state ops =
  let m = Array.make n_keys None in
  List.iteri
    (fun i (key, is_put) -> if is_put then m.(key) <- Some (i + 1))
    ops;
  m

(* Highest-versioned replica value per key: with every write committed,
   this is the register's final state. *)
let final_state store ~n =
  Array.init n_keys (fun key ->
      let best = ref None in
      for node = 0 to n - 1 do
        match Store.replica_value store ~node ~key with
        | Some (v, value) -> (
            match !best with
            | Some (bv, _) when bv >= v -> ()
            | _ -> best := Some (v, value))
        | None -> ()
      done;
      Option.map snd !best)

let run_session ~window ~batch_size ~sequential scenario ops =
  let system = test_system () in
  let n = system.Quorum.System.n in
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.Chaos.plan.Chaos.loss () in
  let config =
    Client_config.(default |> with_timeout 60.0 |> with_retries 8)
  in
  let engine = Engine.create ~seed:(seed + 1) ~nodes:n ~network () in
  let store =
    Store.of_config engine ~config ~read_system:system ~write_system:system ()
  in
  Chaos.apply engine ~rng scenario;
  let session =
    Session.create store ~client ~window ~batch_size ~batch_delay:0.5 ()
  in
  let reqs = requests ops in
  (if sequential then
     let rec go i =
       if i < Array.length reqs then
         let ok =
           Session.submit store session
             ~on_complete:(fun _ -> go (i + 1))
             reqs.(i)
         in
         if not ok then go (i + 1)
     in
     Engine.schedule engine ~time:0.0 (fun () -> go 0)
   else
     Engine.schedule engine ~time:0.0 (fun () ->
         Array.iter
           (fun req -> ignore (Session.submit store session req))
           reqs;
         Session.drain store session));
  ignore (Engine.run_status engine);
  (store, session, final_state store ~n)

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 5 20) (pair (int_range 0 (n_keys - 1)) bool))

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun (k, w) -> Printf.sprintf "%s%d" (if w then "w" else "r") k)
           ops))
    ops_gen

let equivalence (scenario : Chaos.scenario) =
  QCheck.Test.make ~count:12
    ~name:
      (Printf.sprintf "windowed+batched = sequential (%s)"
         scenario.Chaos.label)
    ops_arb
    (fun ops ->
      let total = List.length ops in
      let seq_store, seq_s, seq_state =
        run_session ~window:1 ~batch_size:1 ~sequential:true scenario ops
      in
      let win_store, win_s, win_state =
        run_session ~window:4 ~batch_size:3 ~sequential:false scenario ops
      in
      (* The chaos here is survivable by construction (generous timeout
         and retries), so an incomplete run is itself a failure. *)
      Session.completed seq_s = total
      && Session.completed win_s = total
      && Store.timeouts seq_store + Store.unavailable seq_store = 0
      && Store.timeouts win_store + Store.unavailable win_store = 0
      && Store.stale_reads seq_store = 0
      && Store.stale_reads win_store = 0
      && seq_state = win_state
      && win_state = expected_state ops)

(* --- Batched fsync atomicity ---------------------------------------- *)

let test_batch_torn_as_unit () =
  let dur =
    Durable.create ~obs:(Obs.create ()) ~nodes:1
      (Durable.config ~fsync_latency:1.0 ~torn_tail:true ())
  in
  let at = Durable.append_batch dur ~node:0 ~now:0.0 [ "a"; "b"; "c" ] in
  check "one durable instant for the batch" true (at = 1.0);
  ignore (Durable.append_batch dur ~node:0 ~now:2.0 [ "d"; "e" ]);
  (* d,e are in flight at 2.5; the torn tail then destroys the whole
     newest surviving group (a,b,c) — never a partial batch. *)
  Durable.crash dur ~node:0 ~now:2.5;
  check "torn batch dies whole" true (Durable.replay dur ~node:0 ~now:9.0 = []);
  (* Same appends, crash after both fsyncs: everything survives. *)
  let dur2 =
    Durable.create ~obs:(Obs.create ()) ~nodes:1
      (Durable.config ~fsync_latency:1.0 ~torn_tail:true ())
  in
  ignore (Durable.append_batch dur2 ~node:0 ~now:0.0 [ "a"; "b"; "c" ]);
  ignore (Durable.append_batch dur2 ~node:0 ~now:2.0 [ "d"; "e" ]);
  Durable.crash dur2 ~node:0 ~now:5.0;
  check "settled batches survive" true
    (Durable.replay dur2 ~node:0 ~now:9.0 = [ "a"; "b"; "c"; "d"; "e" ])

(* Property: whatever the batch layout and crash instant, each batch
   survives all-or-nothing. *)
let batch_atomicity =
  QCheck.Test.make ~count:100 ~name:"crash keeps batches all-or-nothing"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5) (int_range 1 4))
        (float_range 0.0 8.0))
    (fun (sizes, crash_at) ->
      let dur =
        Durable.create ~obs:(Obs.create ()) ~nodes:1
          (Durable.config ~fsync_latency:1.0 ~torn_tail:true ())
      in
      List.iteri
        (fun b size ->
          ignore
            (Durable.append_batch dur ~node:0
               ~now:(float_of_int b)
               (List.init size (fun j -> (b, j)))))
        sizes;
      Durable.crash dur ~node:0 ~now:crash_at;
      let survived = Durable.replay dur ~node:0 ~now:100.0 in
      List.for_all
        (fun b ->
          let got =
            List.length (List.filter (fun (b', _) -> b' = b) survived)
          in
          got = 0 || got = List.nth sizes b)
        (List.init (List.length sizes) Fun.id))

(* --- Shard router ---------------------------------------------------- *)

let test_router_layout () =
  let r =
    match Shard_router.create ~universe:12 ~shards:3 () with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  check_int "universe" 12 (Shard_router.universe r);
  check_int "shards" 3 (Shard_router.shard_count r);
  check_int "key routing" 2 (Shard_router.shard_of_key r ~key:5);
  (* Blocks partition the universe contiguously. *)
  check "blocks partition the universe" true
    (List.concat_map
       (fun s -> Array.to_list (Shard_router.members r ~shard:s))
       [ 0; 1; 2 ]
    = List.init 12 Fun.id);
  (* Every shard system spans the full universe, so engine-sized live
     sets work unchanged. *)
  check_int "embedded over the universe" 12
    (Shard_router.read_system r ~key:0).Quorum.System.n;
  (* A member's shard is consistent with the blocks; shard_of_node
     never crosses blocks. *)
  for node = 0 to 11 do
    match Shard_router.shard_of_node r ~node with
    | Some s ->
        check "node sits in its shard's block" true
          (Array.exists (fun p -> p = node) (Shard_router.members r ~shard:s))
    | None -> ()
  done

let test_router_disjoint_quorums () =
  let r =
    match Shard_router.create ~universe:12 ~shards:3 () with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let rng = Rng.create 3 in
  let live = Bitset.universe 12 in
  (* Disjoint keys hit disjoint subquorums: any read/write quorum of
     shard 0 is disjoint from any of shard 1. *)
  for _ = 1 to 20 do
    match
      ( (Shard_router.shard_read_system r ~shard:0).Quorum.System.select rng
          ~live,
        (Shard_router.shard_write_system r ~shard:1).Quorum.System.select rng
          ~live )
    with
    | Some q0, Some q1 ->
        check "subquorums of different shards are disjoint" true
          (Bitset.is_empty (Bitset.inter q0 q1))
    | _ -> Alcotest.fail "no quorum with everything live"
  done

let test_router_rejects_bad_cuts () =
  check "more shards than processes" true
    (Result.is_error (Shard_router.create ~universe:3 ~shards:4 ()));
  check "zero shards" true
    (Result.is_error (Shard_router.create ~universe:3 ~shards:0 ()))

(* --- Backlog shedding ------------------------------------------------ *)

let test_backlog_shed () =
  let system = test_system () in
  let n = system.Quorum.System.n in
  let engine =
    Engine.create ~seed:2 ~nodes:n ~network:(Network.create ()) ()
  in
  let store =
    Store.of_config engine ~read_system:system ~write_system:system ()
  in
  let s = Session.create store ~client:0 ~window:1 ~max_queue:2 () in
  let accepted = ref 0 in
  Engine.schedule engine ~time:0.0 (fun () ->
      for v = 1 to 6 do
        if Session.submit store s (Store.Put { key = 0; value = v }) then
          incr accepted
      done);
  ignore (Engine.run_status engine);
  (* window 1 + backlog 2: the first three submissions stick, the rest
     shed (same key, so nothing can jump the queue). *)
  check_int "accepted" 3 !accepted;
  check_int "shed (session)" 3 (Session.shed s);
  check_int "shed (store)" 3 (Store.shed store);
  check_int "completed the accepted ones" 3 (Session.completed s);
  check_int "peak backlog" 2 (Session.peak_queue s);
  check_int "writes landed" 3 (Store.writes_ok store)

(* --- Throughput runner ----------------------------------------------- *)

let calm_scenario ~horizon = { Chaos.label = "calm"; horizon; plan = Chaos.calm }

let test_throughput_deterministic () =
  let arm = Throughput.htriang_arm ~n:9 in
  let s = calm_scenario ~horizon:60.0 in
  let r1 = Throughput.run_arm ~seed:5 arm s in
  let r2 = Throughput.run_arm ~seed:5 arm s in
  check "pinned seed replays bit-identically" true (r1 = r2);
  check "work was done" true (r1.Throughput.completed > 0);
  check_int "no stale reads" 0 r1.Throughput.stale_reads

let test_throughput_crossover () =
  let s = calm_scenario ~horizon:80.0 in
  let run arm = Throughput.run_arm ~seed:5 ~window:6 arm s in
  let flat = run (Throughput.flat_arm ~n:12) in
  let sharded =
    match Throughput.sharded_arm ~n:12 () with
    | Ok arm -> run arm
    | Error e -> Alcotest.fail e
  in
  check "sharded hierarchical outpaces flat majority at n=12" true
    (sharded.Throughput.ops_per_sec > flat.Throughput.ops_per_sec);
  check_int "sharded stays consistent" 0 sharded.Throughput.stale_reads

let test_open_loop_sheds_under_overload () =
  let s = calm_scenario ~horizon:60.0 in
  let r =
    Throughput.run_arm ~seed:5 ~mode:(Throughput.Open 30.0) ~max_queue:8
      (Throughput.flat_arm ~n:9)
      s
  in
  (* 30 ops/s against a ~4 ops/s flat arm: queues hit the bound and
     overflow is shed rather than growing without limit. *)
  check "bounded queue shed under overload" true (r.Throughput.shed > 0);
  check "queue hit the bound" true (r.Throughput.peak_backlog >= 8);
  check_int "still zero stale reads" 0 r.Throughput.stale_reads

let () =
  Alcotest.run "throughput"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest (equivalence loss_scenario);
          QCheck_alcotest.to_alcotest (equivalence partition_scenario);
        ] );
      ( "batching",
        [
          Alcotest.test_case "torn tail tears whole batches" `Quick
            test_batch_torn_as_unit;
          QCheck_alcotest.to_alcotest batch_atomicity;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "layout" `Quick test_router_layout;
          Alcotest.test_case "disjoint subquorums" `Quick
            test_router_disjoint_quorums;
          Alcotest.test_case "bad cuts rejected" `Quick
            test_router_rejects_bad_cuts;
        ] );
      ( "sessions",
        [ Alcotest.test_case "backlog sheds" `Quick test_backlog_shed ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick
            test_throughput_deterministic;
          Alcotest.test_case "crossover" `Quick test_throughput_crossover;
          Alcotest.test_case "open-loop shed" `Quick
            test_open_loop_sheds_under_overload;
        ] );
    ]
