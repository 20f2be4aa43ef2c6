(* Dynamic membership: the replace/grow/shrink controller driving
   epoch switches over a placed h-triang (section 5's rules online). *)

module Bitset = Quorum.Bitset
module Engine = Sim.Engine
module Membership = Protocols.Membership
module Reconfig = Protocols.Reconfig
module Htriang = Core.Htriang
module C = Protocols.Chaos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setup ?margin ~rows ~universe () =
  let ms = Membership.create ?margin ~rows ~universe ~timeout:30.0 () in
  let engine =
    Engine.create ~seed:5 ~nodes:universe (Membership.handlers ms)
  in
  Membership.bind ms engine;
  (ms, engine)

let test_initial_placement () =
  let ms, _engine = setup ~rows:3 ~universe:12 () in
  check_int "triangle n" 6 (Membership.current_triangle ms).Htriang.n;
  Alcotest.(check (array int))
    "identity placement" [| 0; 1; 2; 3; 4; 5 |] (Membership.members ms);
  let sys = Membership.current_system ms in
  check_int "system over the universe" 12 sys.Quorum.System.n

let test_remap_availability () =
  (* The remapped system's availability must follow the *placed*
     processes, not the identity prefix. *)
  let ms, engine = setup ~rows:3 ~universe:12 () in
  let sys = Membership.current_system ms in
  let all_live = Engine.live_set engine in
  check "full universe available" true (sys.Quorum.System.avail all_live);
  let only_spares = Bitset.of_list 12 [ 6; 7; 8; 9; 10; 11 ] in
  check "spares alone give no quorum" false
    (sys.Quorum.System.avail only_spares)

let test_single_death_tolerated () =
  (* Lazy repair: one dead member is absorbed by the triangle's quorum
     diversity — no switch is spent on it.  (margin 6 keeps the
     controller from growing into the spares instead.) *)
  let ms, engine = setup ~margin:6 ~rows:3 ~universe:12 () in
  Engine.crash_at engine ~time:1.0 ~node:2;
  Engine.schedule engine ~time:2.0 (fun () -> Membership.tick ms engine);
  Engine.schedule engine ~time:10.0 (fun () -> Membership.tick ms engine);
  Engine.run engine;
  check_int "no proposal for a single death" 0 (Membership.proposals ms);
  check "register still available" true
    ((Membership.current_system ms).Quorum.System.avail
       (Engine.live_set engine))

let test_replace_dead_members () =
  (* Two dead members reach the repair debt: one replacement switch
     re-places both slots onto live spares. *)
  let ms, engine = setup ~margin:6 ~rows:3 ~universe:12 () in
  Engine.crash_at engine ~time:1.0 ~node:1;
  Engine.crash_at engine ~time:1.0 ~node:4;
  Engine.schedule engine ~time:2.0 (fun () -> Membership.tick ms engine);
  Engine.schedule engine ~time:12.0 (fun () -> Membership.tick ms engine);
  Engine.run engine;
  check_int "one replacement" 1 (Membership.replacements ms);
  check_int "epoch advanced" 1
    (Reconfig.current_epoch (Membership.reconfig ms));
  let members = Membership.members ms in
  check "dead nodes evicted" true
    (Array.for_all (fun p -> p <> 1 && p <> 4) members);
  check_int "triangle size unchanged" 6 (Array.length members)

let test_grow_when_headroom () =
  (* Plenty of live spares: the controller applies one growth rule per
     adopted switch. *)
  let ms, engine = setup ~rows:2 ~universe:12 () in
  Engine.schedule engine ~time:1.0 (fun () -> Membership.tick ms engine);
  Engine.schedule engine ~time:10.0 (fun () -> Membership.tick ms engine);
  Engine.run engine;
  check "grew at least once" true (Membership.grows ms >= 1);
  check "triangle larger" true ((Membership.current_triangle ms).Htriang.n > 3)

let test_shrink_when_starved () =
  (* The live population cannot fill the triangle plus one spare: the
     controller steps the structure down instead of limping. *)
  let ms, engine = setup ~rows:3 ~universe:12 () in
  for node = 6 to 11 do
    Engine.crash_at engine ~time:1.0 ~node
  done;
  Engine.crash_at engine ~time:1.0 ~node:0;
  Engine.crash_at engine ~time:1.0 ~node:1;
  (* 4 live <= 6 members: shrink, adopt, then possibly shrink again. *)
  Engine.schedule engine ~time:2.0 (fun () -> Membership.tick ms engine);
  Engine.schedule engine ~time:12.0 (fun () -> Membership.tick ms engine);
  Engine.run engine;
  check "shrank" true (Membership.shrinks ms >= 1);
  check "triangle fits the survivors" true
    ((Membership.current_triangle ms).Htriang.n < 6)

let test_churn_smoke () =
  (* Pinned-seed availability-under-churn smoke (the CI gate): heavy
     sustained churn, timed-quorum mode — availability must beat the
     static baseline's collapse regime and safety must hold. *)
  let scen =
    {
      C.label = "churn-smoke";
      horizon = 150.0;
      plan =
        { C.calm with loss = 0.02; churn_sustained = Some (0.18, 130.0) };
    }
  in
  let r, _ =
    C.run_churn_h ~seed:45 ~rate:2.0 ~op_timeout:30.0 ~rows:5 ~period:8.0
      ~lease:3.0 ~mode:C.Timed ~universe:30 scen
  in
  check_int "no stale reads" 0 r.C.stale_reads;
  check "no budget hit" true (not r.C.budget_hit);
  check "switched at least once" true (r.C.epoch_switches >= 1);
  check "availability under churn" true (r.C.availability > 0.7)

let () =
  Alcotest.run "membership"
    [
      ( "controller",
        [
          Alcotest.test_case "initial placement" `Quick test_initial_placement;
          Alcotest.test_case "remap availability" `Quick
            test_remap_availability;
          Alcotest.test_case "single death tolerated" `Quick
            test_single_death_tolerated;
          Alcotest.test_case "replace dead members" `Quick
            test_replace_dead_members;
          Alcotest.test_case "grow" `Quick test_grow_when_headroom;
          Alcotest.test_case "shrink" `Quick test_shrink_when_starved;
        ] );
      ("churn", [ Alcotest.test_case "smoke" `Slow test_churn_smoke ]);
    ]
