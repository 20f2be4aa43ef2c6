(* Crash-recovery suite: the durable store's loss model (tail and torn
   writes), the failure injector's recovery-past-horizon guarantee, the
   replicated store's amnesiac re-join protocol, and the chaos recovery
   scenarios (crash-restart, amnesiac minority, amnesiac majority)
   across all four quorum constructions. *)

module Engine = Sim.Engine
module Durable = Sim.Durable
module Injector = Sim.Failure_injector
module Replicated_store = Protocols.Replicated_store
module Chaos = Protocols.Chaos
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Durable: cells and the crash loss model ------------------------ *)

let test_instant_config_is_free () =
  let dur = Durable.create ~obs:(Obs.create ()) ~nodes:2 Durable.instant in
  check "no fsync latency" true (Durable.fsync_latency dur = 0.0);
  let at = Durable.append dur ~node:0 ~now:3.0 "e" in
  check "append durable immediately" true (at = 3.0);
  Durable.crash dur ~node:0 ~now:3.0;
  check "instant writes survive any crash" true
    (Durable.replay dur ~node:0 ~now:3.0 = [ "e" ])

let test_cell_crash_semantics () =
  let dur =
    Durable.create ~obs:(Obs.create ()) ~nodes:2
      (Durable.config ~fsync_latency:1.0 ())
  in
  let c = Durable.cell dur ~name:"x" in
  let at = Durable.set c ~node:0 ~now:0.0 "a" in
  check "fsync delayed" true (at = 1.0);
  check "memory view sees the pending write" true
    (Durable.get c ~node:0 = Some "a");
  check "not durable before its fsync" true
    (Durable.durable_value c ~node:0 ~now:0.5 = None);
  (* "a" settles at 1.0; "b" is in flight until 3.0 *)
  ignore (Durable.set c ~node:0 ~now:2.0 "b");
  Durable.crash dur ~node:0 ~now:2.5;
  check "durable value survives, in-flight write dies" true
    (Durable.durable_value c ~node:0 ~now:2.5 = Some "a");
  check "memory view agrees after the crash" true
    (Durable.get c ~node:0 = Some "a");
  check "other node untouched" true (Durable.get c ~node:1 = None)

(* qcheck: whatever the fsync latency, entry count and crash time, a
   crash leaves exactly the durable prefix — minus one more record when
   the torn tail bites (only possible when the crash interrupted a
   flush). *)
let torn_tail_replay_is_exact_prefix =
  QCheck.Test.make ~count:300 ~name:"replay = durable prefix under torn tail"
    QCheck.(
      triple (float_range 0.0 2.0) (int_range 0 30) (float_range 0.0 35.0))
    (fun (latency, n_entries, crash_at) ->
      let dur =
        Durable.create ~obs:(Obs.create ()) ~nodes:1
          (Durable.config ~fsync_latency:latency ~torn_tail:true ())
      in
      let appended =
        List.init n_entries (fun i ->
            let at = Durable.append dur ~node:0 ~now:(float_of_int (i + 1)) i in
            (i, at))
      in
      Durable.crash dur ~node:0 ~now:crash_at;
      let survived = List.filter (fun (_, at) -> at <= crash_at) appended in
      let lost = n_entries - List.length survived in
      let expected =
        let s = List.map fst survived in
        if lost > 0 then match List.rev s with [] -> [] | _ :: r -> List.rev r
        else s
      in
      Durable.replay dur ~node:0 ~now:(crash_at +. 100.0) = expected)

(* --- Failure injector: recovery past the horizon --------------------- *)

type quiet = Never [@@warning "-37"]

let quiet_engine ~seed ~nodes =
  let engine = Engine.create ~seed ~nodes () in
  Engine.set_handlers engine
    {
      on_message = (fun _ ~node:_ ~src:_ Never -> ());
      on_timer = (fun _ ~node:_ ~tag:_ -> ());
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    };
  engine

(* qcheck: every crash the iid process generates gets its matching
   recovery, even when the recovery lands past the horizon — no node is
   ever left permanently dead by an accident of scheduling. *)
let injector_recovers_past_horizon =
  QCheck.Test.make ~count:50 ~name:"iid_faults: every crash is recovered"
    QCheck.(triple (int_range 0 100_000) (float_range 0.05 0.6) bool)
    (fun (seed, p, amnesia) ->
      let engine = quiet_engine ~seed ~nodes:7 in
      Injector.iid_faults ~amnesia engine
        ~rng:(Rng.create (seed + 1))
        ~p ~mean_downtime:5.0 ~horizon:50.0;
      Engine.run engine;
      Quorum.Bitset.cardinal (Engine.live_set engine) = 7)

let test_restarts_validation () =
  let engine = quiet_engine ~seed:1 ~nodes:3 in
  Alcotest.check_raises "negative window start rejected"
    (Invalid_argument "Failure_injector.restarts: window") (fun () ->
      Injector.restarts engine [ (-1.0, 2.0, [ 0 ]) ]);
  Alcotest.check_raises "empty downtime rejected"
    (Invalid_argument "Failure_injector.restarts: window") (fun () ->
      Injector.restarts engine [ (1.0, 0.0, [ 0 ]) ]);
  Injector.restarts ~amnesia:true engine [ (1.0, 2.0, [ 0; 2 ]) ];
  Engine.run engine;
  check "all nodes back up" true (Quorum.Bitset.cardinal (Engine.live_set engine) = 3)

(* --- Replicated store: amnesiac re-join ------------------------------ *)

let test_amnesiac_replica_refuses_until_synced () =
  let system = Core.Registry.build_exn "majority(5)" in
  let engine = Engine.create ~seed:101 ~nodes:5 () in
  let store =
    Replicated_store.of_config engine
      ~config:
        Protocols.Client_config.(
          default |> with_durability (Durable.config ~fsync_latency:0.5 ()))
      ~read_system:system ~write_system:system ()
  in
  Engine.schedule engine ~time:1.0 (fun () ->
      Replicated_store.write store ~client:0 ~key:1 ~value:42);
  (* Two replicas lose their memory at once, well after the write
     committed. *)
  Engine.crash_at engine ~time:20.0 ~node:3;
  Engine.crash_at engine ~time:20.0 ~node:4;
  Engine.recover_at ~amnesia:true engine ~time:24.0 ~node:3;
  Engine.recover_at ~amnesia:true engine ~time:24.0 ~node:4;
  let was_rejoining = ref false in
  Engine.schedule engine ~time:24.01 (fun () ->
      was_rejoining :=
        Replicated_store.rejoining store ~node:3
        && Replicated_store.rejoining store ~node:4);
  (* Reads fired into the re-join window: any that land on a
     still-rejoining replica must be nacked, never served from the
     wiped table. *)
  List.iter
    (fun dt ->
      Engine.schedule engine ~time:(24.0 +. dt) (fun () ->
          Replicated_store.read store ~client:0 ~key:1))
    [ 0.1; 0.2; 0.3; 0.4 ];
  Engine.run engine;
  check "both replicas refusing right after recovery" true !was_rejoining;
  check "requests were nacked during the window" true
    (Replicated_store.rejoin_refusals store > 0);
  check "both re-join syncs completed" true (Replicated_store.rejoins store >= 2);
  check "no replica left refusing" true
    ((not (Replicated_store.rejoining store ~node:3))
    && not (Replicated_store.rejoining store ~node:4));
  check_int "reads stayed consistent" 0 (Replicated_store.stale_reads store);
  (* The sync quorum intersects the write quorum, so both amnesiacs
     re-learned the committed write even if their own logs missed it. *)
  check "replica 3 restored" true
    (Replicated_store.replica_value store ~node:3 ~key:1 = Some (1, 42));
  check "replica 4 restored" true
    (Replicated_store.replica_value store ~node:4 ~key:1 = Some (1, 42))

let test_plain_restart_needs_no_rejoin () =
  let system = Core.Registry.build_exn "majority(5)" in
  let engine = Engine.create ~seed:103 ~nodes:5 () in
  let store =
    Replicated_store.of_config engine ~read_system:system ~write_system:system
      ()
  in
  Engine.schedule engine ~time:1.0 (fun () ->
      Replicated_store.write store ~client:0 ~key:1 ~value:7);
  Engine.crash_at engine ~time:20.0 ~node:4;
  Engine.recover_at engine ~time:24.0 ~node:4;
  Engine.schedule engine ~time:24.01 (fun () ->
      check "memory intact, no refusal" false
        (Replicated_store.rejoining store ~node:4));
  Engine.run engine;
  check_int "no rejoin ran" 0 (Replicated_store.rejoins store);
  check_int "consistent" 0 (Replicated_store.stale_reads store)

(* --- Chaos: recovery scenarios across all four systems --------------- *)

let recovery_scenarios = Chaos.recovery ~n:9 ~horizon:120.0

let mutex_systems =
  [ "majority(9)"; "htriang(10)"; "htgrid(3x3)"; "hgrid(3x3)" ]

let test_mutex_safe_under_recovery_scenarios () =
  List.iter
    (fun name ->
      let system = Core.Registry.build_exn name in
      let scenarios =
        Chaos.recovery ~n:system.Quorum.System.n ~horizon:120.0
      in
      List.iter
        (fun scenario ->
          let r = Chaos.run_mutex ~seed:41 ~rate:0.3 ~system scenario in
          check_int
            (name ^ "/" ^ scenario.Chaos.label ^ ": no violations")
            0 r.Chaos.violations;
          check (name ^ "/" ^ scenario.Chaos.label ^ ": made progress") true
            (r.Chaos.entries > 0);
          check (name ^ "/" ^ scenario.Chaos.label ^ ": within budget") false
            r.Chaos.budget_hit)
        scenarios)
    mutex_systems

let store_systems =
  [
    ("majority(9)", "majority(9)", "majority(9)");
    ("htriang(10)", "htriang(10)", "htriang(10)");
    ("htgrid(3x3)", "htgrid(3x3)", "htgrid(3x3)");
    ("hgrid-r/w(3x3)", "hgrid-read(3x3)", "hgrid-write(3x3)");
  ]

let test_store_consistent_under_recovery_scenarios () =
  List.iter
    (fun (name, rs, ws) ->
      let read_system = Core.Registry.build_exn rs in
      let write_system = Core.Registry.build_exn ws in
      let scenarios =
        Chaos.recovery ~n:read_system.Quorum.System.n ~horizon:120.0
      in
      List.iter
        (fun scenario ->
          let r, _ =
            Chaos.run_store_h ~seed:42 ~rate:1.0 ~read_system ~write_system
              ~name scenario
          in
          check_int
            (name ^ "/" ^ scenario.Chaos.label ^ ": no stale reads")
            0 r.Chaos.stale_reads;
          check (name ^ "/" ^ scenario.Chaos.label ^ ": reads complete") true
            (r.Chaos.reads_ok > 0);
          check (name ^ "/" ^ scenario.Chaos.label ^ ": writes complete") true
            (r.Chaos.writes_ok > 0);
          check (name ^ "/" ^ scenario.Chaos.label ^ ": within budget") false
            r.Chaos.budget_hit;
          if scenario.Chaos.plan.Chaos.amnesia then
            check (name ^ "/" ^ scenario.Chaos.label ^ ": rejoins ran") true
              (r.Chaos.rejoins > 0))
        scenarios)
    store_systems

let test_reconfig_consistent_under_recovery_scenarios () =
  let initial = Core.Registry.build_exn "majority(9)" in
  let next = Core.Registry.build_exn "htriang(10)" in
  List.iter
    (fun scenario ->
      let r, _ =
        Chaos.run_reconfig_h ~seed:43 ~rate:1.0 ~initial ~next
          ~name:"majority->htriang" scenario
      in
      check_int
        (scenario.Chaos.label ^ ": no stale reads across epochs")
        0 r.Chaos.stale_reads;
      check (scenario.Chaos.label ^ ": ops completed") true
        (r.Chaos.reads_ok > 0 && r.Chaos.writes_ok > 0);
      check (scenario.Chaos.label ^ ": within budget") false r.Chaos.budget_hit)
    recovery_scenarios

let test_recovery_scenarios_pinned_and_reproducible () =
  (* The scenario labels are part of the CLI surface; keep them
     stable.  And a recovery run replays bit-identically from its
     seed (the seed is carried in the report). *)
  check "labels pinned" true
    (List.map (fun (s : Chaos.scenario) -> s.Chaos.label) recovery_scenarios
    = [ "restart"; "amnesia"; "amnesia-maj" ]);
  let system = Core.Registry.build_exn "majority(9)" in
  let scenario = List.nth recovery_scenarios 2 in
  let run () =
    fst
      (Chaos.run_store_h ~seed:42 ~read_system:system ~write_system:system
         ~name:"m" scenario)
  in
  let a = run () in
  let b = run () in
  check "same seed, same run" true (a = b);
  check_int "report carries the seed" 42 a.Chaos.seed

let () =
  Alcotest.run "recovery"
    [
      ( "durable",
        [
          Alcotest.test_case "instant config is free" `Quick
            test_instant_config_is_free;
          Alcotest.test_case "cell crash semantics" `Quick
            test_cell_crash_semantics;
          QCheck_alcotest.to_alcotest torn_tail_replay_is_exact_prefix;
        ] );
      ( "injector",
        [
          QCheck_alcotest.to_alcotest injector_recovers_past_horizon;
          Alcotest.test_case "restart windows" `Quick test_restarts_validation;
        ] );
      ( "rejoin",
        [
          Alcotest.test_case "amnesiac replica refuses until synced" `Quick
            test_amnesiac_replica_refuses_until_synced;
          Alcotest.test_case "plain restart keeps serving" `Quick
            test_plain_restart_needs_no_rejoin;
        ] );
      ( "chaos recovery",
        [
          Alcotest.test_case "mutex: all systems safe" `Quick
            test_mutex_safe_under_recovery_scenarios;
          Alcotest.test_case "store: all systems consistent" `Quick
            test_store_consistent_under_recovery_scenarios;
          Alcotest.test_case "reconfig: consistent across restarts" `Quick
            test_reconfig_consistent_under_recovery_scenarios;
          Alcotest.test_case "pinned + reproducible" `Quick
            test_recovery_scenarios_pinned_and_reproducible;
        ] );
    ]
