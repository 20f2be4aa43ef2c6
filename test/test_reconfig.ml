(* Online reconfiguration: switching quorum systems across epochs
   without losing writes — section 5's growth rules as a protocol. *)

module Engine = Sim.Engine
module Reconfig = Protocols.Reconfig

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config = Protocols.Client_config.(default |> with_timeout 40.0)

let setup ~universe ~initial =
  let engine = Engine.create ~seed:31 ~nodes:universe () in
  (Reconfig.of_config engine ~config ~initial (), engine)

let test_no_switch_sanity () =
  let initial = Core.Registry.build_exn "htriang(15)" in
  let rc, engine = setup ~universe:15 ~initial in
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.write rc ~client:0 ~value:7);
  Engine.schedule engine ~time:10.0 (fun () -> Reconfig.read rc ~client:3);
  Engine.run engine;
  check_int "write ok" 1 (Reconfig.writes_ok rc);
  check_int "read ok" 1 (Reconfig.reads_ok rc);
  check_int "no stale" 0 (Reconfig.stale_reads rc);
  check_int "no switches" 0 (Reconfig.epoch_switches rc)

(* Grow the triangle online: h-triang(15) -> +2 -> +1 processes, with a
   client workload running across the switches. *)
let test_growth_switch () =
  let t0 = Core.Htriang.standard ~rows:5 () in
  let t1 = Option.get (Core.Htriang.grow_unit_triangle t0) in
  let t2 = Option.get (Core.Htriang.grow_unit_grid t1) in
  let initial = Core.Htriang.system t0 in
  let rc, engine = setup ~universe:t2.Core.Htriang.n ~initial in
  (* Ops every 2 time units; switches injected at 21 and 51. *)
  for k = 0 to 39 do
    let time = 2.0 *. float_of_int (k + 1) in
    let client = k mod 15 in
    if k mod 4 = 0 then
      Engine.schedule engine ~time (fun () ->
          Reconfig.write rc ~client ~value:(1000 + k))
    else
      Engine.schedule engine ~time (fun () -> Reconfig.read rc ~client)
  done;
  Engine.schedule engine ~time:21.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0 (Core.Htriang.system t1));
  Engine.schedule engine ~time:51.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:1 (Core.Htriang.system t2));
  Engine.run engine;
  check_int "two switches" 2 (Reconfig.epoch_switches rc);
  check_int "final epoch" 2 (Reconfig.current_epoch rc);
  check_int "no stale reads across growth" 0 (Reconfig.stale_reads rc);
  check_int "all ops complete" 40
    (Reconfig.reads_ok rc + Reconfig.writes_ok rc + Reconfig.failed rc);
  check_int "no op abandoned" 0 (Reconfig.failed rc);
  check "switch disturbed some ops" true (Reconfig.retries rc >= 0)

let test_cross_family_switch () =
  (* Swap the construction family entirely: h-triang(15) ->
     majority(21) -> h-T-grid(4x4) restricted... use htgrid(4x4) over
     16 <= 21. *)
  let initial = Core.Registry.build_exn "htriang(15)" in
  let rc, engine = setup ~universe:21 ~initial in
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.write rc ~client:2 ~value:42);
  Engine.schedule engine ~time:8.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0
        (Core.Registry.build_exn "majority(21)"));
  Engine.schedule engine ~time:20.0 (fun () -> Reconfig.read rc ~client:17);
  Engine.schedule engine ~time:30.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:5
        (Core.Registry.build_exn "htgrid(4x4)"));
  Engine.schedule engine ~time:45.0 (fun () -> Reconfig.read rc ~client:3);
  Engine.run engine;
  check_int "two switches" 2 (Reconfig.epoch_switches rc);
  check_int "reads ok" 2 (Reconfig.reads_ok rc);
  check_int "writes ok" 1 (Reconfig.writes_ok rc);
  check_int "no stale across families" 0 (Reconfig.stale_reads rc)

let test_concurrent_switch_refused () =
  let initial = Core.Registry.build_exn "majority(9)" in
  let rc, engine = setup ~universe:9 ~initial in
  (* Two reconfigure calls in the same instant: the second must be
     refused, leaving exactly one switch. *)
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0
        (Core.Registry.build_exn "majority(9)");
      Reconfig.reconfigure rc ~coordinator:1
        (Core.Registry.build_exn "majority(9)"));
  Engine.run engine;
  check_int "one switch" 1 (Reconfig.epoch_switches rc);
  check_int "epoch 1" 1 (Reconfig.current_epoch rc)

let test_write_survives_switch () =
  (* The write commits, every replica of the OLD configuration beyond
     the install quorum is then crashed, and the value must still be
     readable in the new configuration. *)
  let initial = Core.Registry.build_exn "htriang(15)" in
  let rc, engine = setup ~universe:21 ~initial in
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.write rc ~client:4 ~value:99);
  Engine.schedule engine ~time:10.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0
        (Core.Registry.build_exn "majority(21)"));
  Engine.schedule engine ~time:25.0 (fun () -> Reconfig.read rc ~client:20);
  Engine.run engine;
  check_int "switched" 1 (Reconfig.epoch_switches rc);
  check_int "write ok" 1 (Reconfig.writes_ok rc);
  check_int "read ok" 1 (Reconfig.reads_ok rc);
  check_int "new-config read sees old write" 0 (Reconfig.stale_reads rc)

let test_many_switch_rounds () =
  (* Ten alternating configurations with a continuous workload. *)
  let a = Core.Registry.build_exn "htriang(15)" in
  let b = Core.Registry.build_exn "majority(15)" in
  let rc, engine = setup ~universe:15 ~initial:a in
  for k = 0 to 99 do
    let time = 1.5 *. float_of_int (k + 1) in
    let client = (k * 7) mod 15 in
    if k mod 5 = 0 then
      Engine.schedule engine ~time (fun () ->
          Reconfig.write rc ~client ~value:k)
    else Engine.schedule engine ~time (fun () -> Reconfig.read rc ~client)
  done;
  for s = 0 to 9 do
    let time = 15.0 *. float_of_int (s + 1) in
    let target = if s mod 2 = 0 then b else a in
    Engine.schedule engine ~time (fun () ->
        Reconfig.reconfigure rc ~coordinator:(s mod 15) target)
  done;
  Engine.run engine;
  check_int "ten switches" 10 (Reconfig.epoch_switches rc);
  check_int "no stale over ten rounds" 0 (Reconfig.stale_reads rc);
  check_int "nothing abandoned" 0 (Reconfig.failed rc);
  check_int "all ops complete" 100
    (Reconfig.reads_ok rc + Reconfig.writes_ok rc)

let test_coordinator_crash_mid_switch () =
  (* The coordinator dies with its seal round in flight: the switch is
     torn down, sealed replicas self-heal through their unseal tick,
     and a fresh coordinator completes the resize afterwards — with
     the pre-crash write still visible in the new configuration. *)
  let initial = Core.Registry.build_exn "htriang(15)" in
  let engine = Engine.create ~seed:31 ~nodes:21 () in
  let rc = Reconfig.of_config engine ~config ~switch_retry:3.0 ~initial () in
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.write rc ~client:4 ~value:99);
  Engine.schedule engine ~time:10.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0
        (Core.Registry.build_exn "majority(21)"));
  (* Seal requests are on the wire; their acks will reach a corpse. *)
  Engine.crash_at engine ~time:10.8 ~node:0;
  Engine.schedule engine ~time:25.0 (fun () -> Reconfig.read rc ~client:5);
  Engine.schedule engine ~time:30.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:1
        (Core.Registry.build_exn "majority(21)"));
  Engine.schedule engine ~time:45.0 (fun () -> Reconfig.read rc ~client:20);
  Engine.run engine;
  check_int "only the retry switch commits" 1 (Reconfig.epoch_switches rc);
  check_int "epoch advanced once" 1 (Reconfig.current_epoch rc);
  check "crashed switch counted refused" true
    (Reconfig.refused_switches rc >= 1);
  check_int "write ok" 1 (Reconfig.writes_ok rc);
  check_int "both reads ok" 2 (Reconfig.reads_ok rc);
  check_int "no op failed" 0 (Reconfig.failed rc);
  check_int "no stale read across the crash" 0 (Reconfig.stale_reads rc)

let test_timed_switch () =
  (* Timed-quorum mode: the switch drains leases instead of sealing a
     structural quorum — writes committed during the drain must still
     be visible after the install. *)
  let initial = Core.Registry.build_exn "htriang(15)" in
  let engine = Engine.create ~seed:31 ~nodes:21 () in
  let rc =
    Reconfig.of_config engine ~config ~lease:4.0 ~switch_retry:3.0 ~initial ()
  in
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.write rc ~client:4 ~value:7);
  Engine.schedule engine ~time:10.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0
        (Core.Registry.build_exn "majority(21)"));
  (* Landed inside the drain window: old-epoch members keep serving
     until their individual leases expire. *)
  Engine.schedule engine ~time:11.0 (fun () ->
      Reconfig.write rc ~client:6 ~value:8);
  Engine.schedule engine ~time:35.0 (fun () -> Reconfig.read rc ~client:20);
  Engine.run engine;
  check_int "timed switch commits" 1 (Reconfig.epoch_switches rc);
  check_int "both writes ok" 2 (Reconfig.writes_ok rc);
  check_int "read ok" 1 (Reconfig.reads_ok rc);
  check_int "drain-window write visible after install" 0
    (Reconfig.stale_reads rc)

let test_shrink_ignores_straggler () =
  (* h-triang(21) shrinks to h-triang(15) while node 20 answers three
     times slower than everyone else.  An op whose round went out under
     the 21-node system is relaunched under the 15-node one; node 20's
     late reply to the old round then names a member outside the new
     round's set, and must be ignored rather than crash the run. *)
  let initial = Core.Registry.build_exn "htriang(21)" in
  let engine = Engine.create ~seed:31 ~nodes:21 () in
  let rc =
    Reconfig.of_config engine
      ~config:Protocols.Client_config.(default |> with_timeout 60.0)
      ~initial ()
  in
  Sim.Network.set_slowdown (Engine.network engine) ~node:20 3.0;
  Engine.schedule engine ~time:1.0 (fun () ->
      Reconfig.reconfigure rc ~coordinator:0
        (Core.Registry.build_exn "htriang(15)"));
  for k = 0 to 59 do
    let time = 0.5 *. float_of_int (k + 1) in
    let client = k mod 15 in
    if k mod 3 = 0 then
      Engine.schedule engine ~time (fun () ->
          Reconfig.write rc ~client ~value:(1000 + k))
    else Engine.schedule engine ~time (fun () -> Reconfig.read rc ~client)
  done;
  Engine.run engine;
  check_int "switched" 1 (Reconfig.epoch_switches rc);
  check_int "all 60 ops complete" 60
    (Reconfig.reads_ok rc + Reconfig.writes_ok rc);
  check_int "no stale read across the shrink" 0 (Reconfig.stale_reads rc)

let () =
  Alcotest.run "reconfig"
    [
      ( "reconfiguration",
        [
          Alcotest.test_case "sanity" `Quick test_no_switch_sanity;
          Alcotest.test_case "growth switch" `Quick test_growth_switch;
          Alcotest.test_case "cross family" `Quick test_cross_family_switch;
          Alcotest.test_case "concurrent refused" `Quick
            test_concurrent_switch_refused;
          Alcotest.test_case "write survives" `Quick test_write_survives_switch;
          Alcotest.test_case "many rounds" `Quick test_many_switch_rounds;
          Alcotest.test_case "coordinator crash mid-switch" `Quick
            test_coordinator_crash_mid_switch;
          Alcotest.test_case "timed switch" `Quick test_timed_switch;
          Alcotest.test_case "shrink ignores straggler" `Quick
            test_shrink_ignores_straggler;
        ] );
    ]
