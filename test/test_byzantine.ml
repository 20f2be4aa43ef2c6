(* Byzantine quorum layer: masking/dissemination property checks, the
   threshold and boost constructions, and end-to-end safety of the
   Byzantine replicated register (the adaptation the paper's related
   work anticipates). *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Masking = Byzantine.Masking
module Engine = Sim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Property checks ----------------------------------------------- *)

let test_intersection_levels () =
  (* Plain majority(9): quorums of 5 intersect in >= 1. *)
  let maj = System.quorums_exn (Systems.Majority.make 9) in
  check_int "majority(9) intersection" 1
    (Masking.min_pairwise_intersection maj);
  check "majority(9) is 0-masking" true (Masking.is_masking ~f:0 maj);
  check "majority(9) not 1-dissemination" false
    (Masking.is_dissemination ~f:1 maj);
  check_int "tolerable f" 0 (Masking.tolerable_f maj)

let test_fpp_dissemination () =
  (* Projective-plane lines meet in exactly one point: 0-dissemination
     only. *)
  let fano = System.quorums_exn (Systems.Fpp.system ~order:2 ()) in
  check_int "fano intersection" 1 (Masking.min_pairwise_intersection fano)

let test_majority_masking_properties () =
  List.iter
    (fun (n, f) ->
      let s = Masking.majority_masking ~n ~f in
      let quorums = System.quorums_exn s in
      check
        (Printf.sprintf "masking(%d,%d) property" n f)
        true
        (Masking.is_masking ~f quorums);
      check
        (Printf.sprintf "masking(%d,%d) crash availability" n f)
        true
        (Masking.crash_available ~f s);
      check
        (Printf.sprintf "masking(%d,%d) intersects" n f)
        true
        (Quorum.Coterie.all_intersect quorums))
    [ (5, 1); (9, 1); (13, 2) ]

let test_majority_masking_bounds () =
  check "needs 4f+1" true
    (try
       ignore (Masking.majority_masking ~n:4 ~f:1);
       false
     with Invalid_argument _ -> true)

(* --- Boost ---------------------------------------------------------- *)

let test_boost_htriang () =
  (* Three replicated copies of h-triang(10): quorums are one base
     quorum per copy, so any two boosted quorums share at least 3
     processes — f = 1 masking over 30 processes. *)
  let base = Core.Htriang.system (Core.Htriang.standard ~rows:4 ()) in
  let boosted = Masking.boost ~k:3 base in
  check_int "boosted universe" 30 boosted.System.n;
  check "boosted universe available" true
    (boosted.System.avail (Bitset.universe 30));
  let rng = Quorum.Rng.create 3 in
  let samples = ref [] in
  for _ = 1 to 40 do
    match boosted.System.select rng ~live:(Bitset.universe 30) with
    | Some q -> samples := q :: !samples
    | None -> Alcotest.fail "boosted select failed on full universe"
  done;
  (* Any two sampled boosted quorums share >= 3 processes. *)
  check "boosted pairwise intersection >= 3" true
    (Masking.min_pairwise_intersection !samples >= 3);
  (* Each sample is one size-4 quorum per copy. *)
  List.iter
    (fun q -> check_int "boosted size" 12 (Bitset.cardinal q))
    !samples;
  (* Killing one entire copy's quorums kills the boosted system. *)
  let live = Bitset.universe 30 in
  List.iter (fun e -> Bitset.remove live e) [ 6; 7; 8; 9 ];
  check "bottom row of copy 0 gone -> unavailable" false
    (boosted.System.avail live)

let test_boost_enumerated_masking () =
  (* Small enough to enumerate the boosted coterie and verify the
     masking property exactly. *)
  let base = Systems.Majority.make 3 in
  let boosted = Masking.boost ~k:3 base in
  let quorums = System.quorums_exn boosted in
  check_int "27 boosted quorums" 27 (List.length quorums);
  check "3-wise intersection" true (Masking.is_masking ~f:1 quorums);
  check "boosted coterie" true (Quorum.Coterie.all_intersect quorums)

let test_boost_monotone () =
  let base = Core.Htriang.system (Core.Htriang.standard ~rows:5 ()) in
  let b1 = Masking.boost ~k:1 base in
  let rng = Quorum.Rng.create 9 in
  for _ = 1 to 100 do
    let live = Bitset.random_subset rng ~n:15 ~p:0.7 in
    (* k=1 boost is the base system. *)
    if base.System.avail live <> b1.System.avail live then
      Alcotest.fail "k=1 boost differs from base"
  done

(* --- Byzantine register ---------------------------------------------- *)

let run_store ~system ~f ~byzantine ~ops =
  let engine = Engine.create ~seed:17 ~nodes:system.System.n () in
  let store =
    Protocols.Byz_store.create engine ~system ~f ~byzantine ~timeout:60.0
  in
  let correct_clients =
    List.filter
      (fun i -> not (List.mem i byzantine))
      (List.init system.System.n (fun i -> i))
  in
  let client k = List.nth correct_clients (k mod List.length correct_clients) in
  List.iteri
    (fun k op ->
      let time = 5.0 *. float_of_int (k + 1) in
      match op with
      | `Write value ->
          Engine.schedule engine ~time (fun () ->
              Protocols.Byz_store.write store ~client:(client k) ~value)
      | `Read ->
          Engine.schedule engine ~time (fun () ->
              Protocols.Byz_store.read store ~client:(client k)))
    ops;
  Engine.run engine;
  store

let workload =
  [ `Write 11; `Read; `Write 22; `Read; `Read; `Write 33; `Read; `Read ]

(* A read-heavy tail makes the adversarial coincidences (weak
   intersections, double-Byzantine quorums) deterministic. *)
let adversarial_workload =
  workload @ List.init 40 (fun _ -> `Read)

let test_byz_store_masking_safe () =
  (* f = 1 Byzantine replica over a 1-masking system: reads are never
     fabricated nor stale. *)
  let system = Masking.majority_masking ~n:9 ~f:1 in
  let store = run_store ~system ~f:1 ~byzantine:[ 4 ] ~ops:workload in
  check_int "writes done" 3 (Protocols.Byz_store.writes_ok store);
  check_int "reads done" 5 (Protocols.Byz_store.reads_ok store);
  check_int "no fabricated reads" 0
    (Protocols.Byz_store.fabricated_reads store);
  check_int "no stale reads" 0 (Protocols.Byz_store.stale_reads store);
  check_int "no inconclusive reads" 0
    (Protocols.Byz_store.inconclusive_reads store)

let test_byz_store_boosted_htriang () =
  (* The paper's h-triang, boosted to k = 3 = 2f+1: same guarantees,
     hierarchical structure retained. *)
  let base = Core.Htriang.system (Core.Htriang.standard ~rows:4 ()) in
  let system = Masking.boost ~k:3 base in
  let store = run_store ~system ~f:1 ~byzantine:[ 7 ] ~ops:workload in
  check_int "boosted: writes done" 3 (Protocols.Byz_store.writes_ok store);
  check_int "boosted: no fabricated" 0
    (Protocols.Byz_store.fabricated_reads store);
  check_int "boosted: no stale" 0 (Protocols.Byz_store.stale_reads store)

let test_byz_store_weak_system_unsafe () =
  (* Plain majority(9) has single-process intersections: with one
     Byzantine replica the vouching threshold protects against
     fabrication, but genuine writes can be missed (stale or
     inconclusive reads appear). *)
  let system = Systems.Majority.make 9 in
  let store = run_store ~system ~f:1 ~byzantine:[ 0 ] ~ops:adversarial_workload in
  check_int "weak: still no fabricated reads" 0
    (Protocols.Byz_store.fabricated_reads store);
  check "weak: loses updates" true
    (Protocols.Byz_store.stale_reads store
     + Protocols.Byz_store.inconclusive_reads store
    > 0)

let test_byz_store_over_budget () =
  (* Two Byzantine replicas against an f = 1 system: fabrication becomes
     possible (two matching bogus replies reach the voucher
     threshold). *)
  let system = Masking.majority_masking ~n:9 ~f:1 in
  let store =
    run_store ~system ~f:1 ~byzantine:[ 2; 6 ] ~ops:adversarial_workload
  in
  check "over budget: fabricated reads appear" true
    (Protocols.Byz_store.fabricated_reads store > 0)

let () =
  Alcotest.run "byzantine"
    [
      ( "properties",
        [
          Alcotest.test_case "intersection levels" `Quick
            test_intersection_levels;
          Alcotest.test_case "fpp dissemination" `Quick test_fpp_dissemination;
          Alcotest.test_case "majority masking" `Quick
            test_majority_masking_properties;
          Alcotest.test_case "bounds" `Quick test_majority_masking_bounds;
        ] );
      ( "boost",
        [
          Alcotest.test_case "boost h-triang" `Quick test_boost_htriang;
          Alcotest.test_case "boost enumerated" `Quick
            test_boost_enumerated_masking;
          Alcotest.test_case "k=1 is base" `Quick test_boost_monotone;
        ] );
      ( "register",
        [
          Alcotest.test_case "masking safe" `Quick test_byz_store_masking_safe;
          Alcotest.test_case "boosted h-triang" `Quick
            test_byz_store_boosted_htriang;
          Alcotest.test_case "weak system loses updates" `Quick
            test_byz_store_weak_system_unsafe;
          Alcotest.test_case "over budget" `Quick test_byz_store_over_budget;
        ] );
    ]
