(* k-coteries and k-mutual exclusion: structural properties of the
   constructions and end-to-end semaphore behaviour (capacity reached,
   never exceeded). *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module K = Systems.K_coterie
module Engine = Sim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Structure ------------------------------------------------------- *)

let test_degree () =
  (* A 1-coterie has degree 1 by the intersection property. *)
  check_int "majority degree" 1
    (K.degree (System.quorums_exn (Systems.Majority.make 7)));
  check_int "htriang degree" 1
    (K.degree
       (System.quorums_exn
          (Core.Htriang.system (Core.Htriang.standard ~rows:4 ()))));
  (* Singletons over disjoint elements: degree = count. *)
  let disjoint =
    [ Bitset.of_list 6 [ 0; 1 ]; Bitset.of_list 6 [ 2; 3 ]; Bitset.of_list 6 [ 4; 5 ] ]
  in
  check_int "three disjoint" 3 (K.degree disjoint)

let test_k_majority_properties () =
  List.iter
    (fun (n, k) ->
      let s = K.k_majority ~n ~k in
      let quorums = System.quorums_exn s in
      check
        (Printf.sprintf "k-majority(%d,%d) is a %d-coterie" n k k)
        true
        (K.is_k_coterie ~k quorums))
    [ (6, 2); (9, 2); (11, 3) ]

let test_k_majority_is_majority_for_k1 () =
  let a = K.k_majority ~n:7 ~k:1 in
  let b = Systems.Majority.make 7 in
  for mask = 0 to 127 do
    if System.avail_mask_exn a mask <> System.avail_mask_exn b mask then
      Alcotest.failf "k=1 differs from majority at %d" mask
  done

let test_copies_properties () =
  (* 3 copies of h-triang(6): a 3-coterie over 18 processes. *)
  let base = Core.Htriang.system (Core.Htriang.standard ~rows:3 ()) in
  let s = K.copies ~k:3 base in
  check_int "universe" 18 s.System.n;
  let quorums = System.quorums_exn s in
  check "is a 3-coterie" true (K.is_k_coterie ~k:3 quorums);
  check_int "3x base quorums" 30 (List.length quorums);
  (* availability = any group's slice available *)
  let live = Bitset.create 18 in
  check "empty unavailable" false (s.System.avail live);
  (* one full group *)
  for e = 6 to 11 do
    Bitset.add live e
  done;
  check "middle group alone suffices" true (s.System.avail live)

let test_copies_select_spreads () =
  let base = Core.Htriang.system (Core.Htriang.standard ~rows:3 ()) in
  let s = K.copies ~k:3 base in
  let rng = Quorum.Rng.create 5 in
  let group_hits = Array.make 3 0 in
  for _ = 1 to 300 do
    match s.System.select rng ~live:(Bitset.universe 18) with
    | Some q ->
        let g = Option.get (Bitset.choose q) / 6 in
        group_hits.(g) <- group_hits.(g) + 1
    | None -> Alcotest.fail "select failed"
  done;
  Array.iter
    (fun hits -> check "each group used" true (hits > 50))
    group_hits

(* --- k-mutual exclusion ---------------------------------------------- *)

let run_k_mutex ~capacity ~system ~requests =
  let engine = Engine.create ~seed:13 ~nodes:system.System.n () in
  let mx =
    Protocols.Mutex.of_config engine
      ~config:Protocols.Client_config.(default |> with_timeout 1000.0)
      ~capacity ~system ~cs_duration:5.0 ()
  in
  (* A burst of requests so concurrency can build up. *)
  Protocols.Workload.staggered_requests engine ~every:0.05 ~count:requests
    (fun ~client -> Protocols.Mutex.request mx ~node:client);
  Engine.run engine;
  mx

let test_k_mutex_semaphore () =
  (* 3 copies of h-triang(6) as a 3-coterie: up to three concurrent
     critical sections, never four. *)
  let base = Core.Htriang.system (Core.Htriang.standard ~rows:3 ()) in
  let system = K.copies ~k:3 base in
  let mx = run_k_mutex ~capacity:3 ~system ~requests:18 in
  check_int "all served" 18 (Protocols.Mutex.entries mx);
  check_int "never above capacity" 0 (Protocols.Mutex.violations mx);
  check "parallelism achieved" true (Protocols.Mutex.max_concurrency mx >= 2)

let test_k_mutex_k_majority () =
  (* Random 4-of-9 quorums usually overlap, so parallelism here is
     opportunistic; the hard guarantee is the ceiling. *)
  let system = K.k_majority ~n:9 ~k:2 in
  let mx = run_k_mutex ~capacity:2 ~system ~requests:9 in
  check_int "all served" 9 (Protocols.Mutex.entries mx);
  check_int "never above 2" 0 (Protocols.Mutex.violations mx);
  check "ceiling respected" true (Protocols.Mutex.max_concurrency mx <= 2)

let test_plain_mutex_stays_serial () =
  (* Control: a 1-coterie under the same burst never exceeds one
     holder. *)
  let system = Core.Registry.build_exn "htriang(10)" in
  let mx = run_k_mutex ~capacity:1 ~system ~requests:10 in
  check_int "serial" 1 (Protocols.Mutex.max_concurrency mx);
  check_int "safe" 0 (Protocols.Mutex.violations mx)

let () =
  Alcotest.run "kcoterie"
    [
      ( "structure",
        [
          Alcotest.test_case "degree" `Quick test_degree;
          Alcotest.test_case "k-majority" `Quick test_k_majority_properties;
          Alcotest.test_case "k=1 is majority" `Quick
            test_k_majority_is_majority_for_k1;
          Alcotest.test_case "copies" `Quick test_copies_properties;
          Alcotest.test_case "copies spread" `Quick test_copies_select_spreads;
        ] );
      ( "k-mutex",
        [
          Alcotest.test_case "semaphore" `Quick test_k_mutex_semaphore;
          Alcotest.test_case "k-majority semaphore" `Quick
            test_k_mutex_k_majority;
          Alcotest.test_case "serial control" `Quick
            test_plain_mutex_stays_serial;
        ] );
    ]
