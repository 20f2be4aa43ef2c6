(* End-to-end protocol tests: quorum mutual exclusion (safety under
   contention, liveness) and the replicated store (consistency, fault
   handling). *)

module Engine = Sim.Engine
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mutex_config = Protocols.Client_config.(default |> with_timeout 1000.0)

let run_mutex ?(seed = 1) ?(requests = 30) ?(spacing = 0.1) ?faults spec =
  let system = Core.Registry.build_exn spec in
  let engine = Engine.create ~seed ~nodes:system.Quorum.System.n () in
  let mx =
    Protocols.Mutex.of_config engine ~config:mutex_config ~system
      ~cs_duration:0.8 ()
  in
  (match faults with
  | Some events -> Sim.Failure_injector.scripted engine events
  | None -> ());
  Protocols.Workload.staggered_requests engine ~every:spacing ~count:requests
    (fun ~client -> Protocols.Mutex.request mx ~node:client);
  Engine.run engine;
  mx

let test_mutex_safety_liveness () =
  List.iter
    (fun spec ->
      let mx = run_mutex spec in
      check_int (spec ^ ": no violations") 0 (Protocols.Mutex.violations mx);
      check_int (spec ^ ": all served") 30 (Protocols.Mutex.entries mx);
      check_int (spec ^ ": none unavailable") 0
        (Protocols.Mutex.unavailable mx))
    [ "majority(7)"; "htriang(10)"; "htgrid(3x3)"; "cwlog(8)"; "fpp(7)" ]

let test_mutex_heavy_contention () =
  (* All requests in a burst: INQUIRE/YIELD machinery must untangle. *)
  let mx = run_mutex ~requests:15 ~spacing:0.0001 "htriang(15)" in
  check_int "burst: safe" 0 (Protocols.Mutex.violations mx);
  check_int "burst: all served" 15 (Protocols.Mutex.entries mx)

let test_mutex_many_seeds () =
  List.iter
    (fun seed ->
      let mx = run_mutex ~seed ~requests:20 ~spacing:0.05 "htriang(10)" in
      check_int "seeded: safe" 0 (Protocols.Mutex.violations mx);
      check_int "seeded: served" 20 (Protocols.Mutex.entries mx))
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_mutex_with_dead_nodes () =
  (* Crash two nodes before any request: live-aware selection must
     route around them. *)
  let faults =
    [ (0.0, Sim.Failure_injector.Crash 0); (0.0, Sim.Failure_injector.Crash 7) ]
  in
  let system = Core.Registry.build_exn "htriang(15)" in
  let engine = Engine.create ~seed:4 ~nodes:15 () in
  let mx =
    Protocols.Mutex.of_config engine ~config:mutex_config ~system
      ~cs_duration:0.5 ()
  in
  Sim.Failure_injector.scripted engine faults;
  (* Only live nodes request. *)
  List.iter
    (fun (i, t) ->
      Engine.schedule engine ~time:t (fun () ->
          Protocols.Mutex.request mx ~node:i))
    [ (1, 1.0); (2, 1.1); (3, 1.2); (8, 1.3); (14, 1.4) ];
  Engine.run engine;
  check_int "faulty: safe" 0 (Protocols.Mutex.violations mx);
  check_int "faulty: served" 5 (Protocols.Mutex.entries mx)

let test_mutex_waits_positive () =
  let mx = run_mutex ~requests:10 ~spacing:0.01 "majority(7)" in
  let stats = Protocols.Mutex.acquire_latency mx in
  check_int "latency samples" 10 (Obs.Metrics.count stats);
  check "waits positive" true (Obs.Metrics.mean stats > 0.0)

(* --- Replicated store ---------------------------------------------- *)

let make_store ?(seed = 11) spec_read spec_write =
  let read_system = Core.Registry.build_exn spec_read in
  let write_system = Core.Registry.build_exn spec_write in
  let engine = Engine.create ~seed ~nodes:read_system.Quorum.System.n () in
  ( Protocols.Replicated_store.of_config engine
      ~config:Protocols.Client_config.(default |> with_timeout 50.0)
      ~read_system ~write_system (),
    engine )

let test_store_basic_rw () =
  let store, engine = make_store "hgrid-read(4x4)" "hgrid-write(4x4)" in
  Engine.schedule engine ~time:1.0 (fun () ->
      Protocols.Replicated_store.write store ~client:0 ~key:1 ~value:42);
  Engine.schedule engine ~time:10.0 (fun () ->
      Protocols.Replicated_store.read store ~client:5 ~key:1);
  Engine.run engine;
  check_int "write ok" 1 (Protocols.Replicated_store.writes_ok store);
  check_int "read ok" 1 (Protocols.Replicated_store.reads_ok store);
  check_int "no stale" 0 (Protocols.Replicated_store.stale_reads store);
  check_int "no timeouts" 0 (Protocols.Replicated_store.timeouts store)

let test_store_mixed_workload () =
  List.iter
    (fun (r, w) ->
      let store, engine = make_store r w in
      let rng = Rng.create 5 in
      let n =
        Protocols.Workload.read_write_mix engine ~rng ~rate:2.0 ~horizon:100.0
          ~read_fraction:0.7 ~keys:4
          ~read:(fun ~client ~key ->
            Protocols.Replicated_store.read store ~client ~key)
          ~write:(fun ~client ~key ~value ->
            Protocols.Replicated_store.write store ~client ~key ~value)
      in
      Engine.run engine;
      let done_ =
        Protocols.Replicated_store.reads_ok store
        + Protocols.Replicated_store.writes_ok store
      in
      check_int (r ^ ": all ops complete") n done_;
      check_int (r ^ ": no stale reads") 0
        (Protocols.Replicated_store.stale_reads store))
    [
      ("hgrid-read(4x4)", "hgrid-write(4x4)");
      ("htriang(15)", "htriang(15)");
      ("majority(9)", "majority(9)");
    ];
  (* Out-of-range mixes are refused before anything is scheduled. *)
  let _, engine = make_store "majority(9)" "majority(9)" in
  let mix ~read_fraction ~keys () =
    ignore
      (Protocols.Workload.read_write_mix engine ~rng:(Rng.create 5) ~rate:2.0
         ~horizon:100.0 ~read_fraction ~keys
         ~read:(fun ~client:_ ~key:_ -> ())
         ~write:(fun ~client:_ ~key:_ ~value:_ -> ()))
  in
  Alcotest.check_raises "no keys"
    (Invalid_argument "Workload.read_write_mix: keys")
    (mix ~read_fraction:0.7 ~keys:0);
  Alcotest.check_raises "read fraction above 1"
    (Invalid_argument "Workload.read_write_mix: read_fraction")
    (mix ~read_fraction:1.5 ~keys:4)

let test_store_under_faults () =
  (* iid transient faults: operations may time out or be refused but
     completed reads stay consistent. *)
  let store, engine = make_store ~seed:21 "htriang(15)" "htriang(15)" in
  Sim.Failure_injector.iid_faults engine ~rng:(Rng.create 9) ~p:0.15
    ~mean_downtime:10.0 ~horizon:400.0;
  let rng = Rng.create 6 in
  let n =
    Protocols.Workload.read_write_mix engine ~rng ~rate:1.0 ~horizon:400.0
      ~read_fraction:0.5 ~keys:3
      ~read:(fun ~client ~key ->
        Protocols.Replicated_store.read store ~client ~key)
      ~write:(fun ~client ~key ~value ->
        Protocols.Replicated_store.write store ~client ~key ~value)
  in
  Engine.run engine;
  let ok =
    Protocols.Replicated_store.reads_ok store
    + Protocols.Replicated_store.writes_ok store
  in
  let failed =
    Protocols.Replicated_store.timeouts store
    + Protocols.Replicated_store.unavailable store
  in
  check "some ops issued" true (n > 50);
  check "most ops complete" true (ok > n / 2);
  check_int "accounting" n (ok + failed);
  check_int "no stale reads under faults" 0
    (Protocols.Replicated_store.stale_reads store)

let test_store_retries_improve_availability () =
  (* Same fault process, with and without retry-on-timeout: retries
     recover most mid-flight member crashes, consistency intact. *)
  let run retries =
    let read_system = Core.Registry.build_exn "htriang(15)" in
    let engine = Engine.create ~seed:41 ~nodes:15 () in
    let store =
      Protocols.Replicated_store.of_config engine
        ~config:Protocols.Client_config.(default |> with_retries retries)
        ~read_system ~write_system:read_system ()
    in
    Sim.Failure_injector.iid_faults engine ~rng:(Rng.create 42) ~p:0.15
      ~mean_downtime:12.0 ~horizon:500.0;
    let n =
      Protocols.Workload.read_write_mix engine ~rng:(Rng.create 43) ~rate:1.0
        ~horizon:500.0 ~read_fraction:0.5 ~keys:2
        ~read:(fun ~client ~key ->
          Protocols.Replicated_store.read store ~client ~key)
        ~write:(fun ~client ~key ~value ->
          Protocols.Replicated_store.write store ~client ~key ~value)
    in
    Engine.run engine;
    let ok =
      Protocols.Replicated_store.reads_ok store
      + Protocols.Replicated_store.writes_ok store
    in
    (n, ok, store)
  in
  let n0, ok0, store0 = run 0 in
  let n3, ok3, store3 = run 3 in
  check_int "same workload" n0 n3;
  check "retries help" true (ok3 > ok0);
  check "retries actually used" true
    (Protocols.Replicated_store.retried store3 > 0);
  check_int "still consistent (0 retries)" 0
    (Protocols.Replicated_store.stale_reads store0);
  check_int "still consistent (3 retries)" 0
    (Protocols.Replicated_store.stale_reads store3)

let test_store_partition_unavailability () =
  (* A partition isolating most nodes makes quorums unavailable for
     clients on the minority side: operations time out rather than
     return inconsistent data. *)
  let read_system = Core.Registry.build_exn "majority(9)" in
  let write_system = Core.Registry.build_exn "majority(9)" in
  let network = Sim.Network.create () in
  let engine = Engine.create ~seed:31 ~nodes:9 ~network () in
  let store =
    Protocols.Replicated_store.of_config engine
      ~config:Protocols.Client_config.(default |> with_timeout 20.0)
      ~read_system ~write_system ()
  in
  Engine.schedule engine ~time:1.0 (fun () ->
      ignore (Sim.Network.partition network ~group_a:[ 0; 1 ]));
  Engine.schedule engine ~time:2.0 (fun () ->
      Protocols.Replicated_store.write store ~client:0 ~key:0 ~value:7);
  Engine.run engine;
  check_int "minority write cannot complete" 0
    (Protocols.Replicated_store.writes_ok store);
  (* With retries the attempt may end as a timeout or — once the far
     side is suspected and no quorum remains in view — as unavailable;
     either way it fails exactly once and never "succeeds". *)
  check_int "it fails" 1
    (Protocols.Replicated_store.timeouts store
    + Protocols.Replicated_store.unavailable store)

let () =
  Alcotest.run "protocols"
    [
      ( "mutex",
        [
          Alcotest.test_case "safety+liveness" `Quick test_mutex_safety_liveness;
          Alcotest.test_case "heavy contention" `Quick
            test_mutex_heavy_contention;
          Alcotest.test_case "many seeds" `Quick test_mutex_many_seeds;
          Alcotest.test_case "dead nodes" `Quick test_mutex_with_dead_nodes;
          Alcotest.test_case "wait stats" `Quick test_mutex_waits_positive;
        ] );
      ( "replicated store",
        [
          Alcotest.test_case "basic rw" `Quick test_store_basic_rw;
          Alcotest.test_case "mixed workload" `Quick test_store_mixed_workload;
          Alcotest.test_case "under faults" `Quick test_store_under_faults;
          Alcotest.test_case "retries" `Quick
            test_store_retries_improve_availability;
          Alcotest.test_case "partition" `Quick
            test_store_partition_unavailability;
        ] );
    ]
