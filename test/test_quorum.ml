(* Unit and property tests for the quorum substrate: bitsets, RNG,
   failure polynomials, combinatorics, coterie operations and
   strategies. *)

module Bitset = Quorum.Bitset
module Rng = Quorum.Rng
module Failure_poly = Quorum.Failure_poly
module Combinat = Quorum.Combinat
module Coterie = Quorum.Coterie
module Strategy = Quorum.Strategy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Bitset ------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bitset.create 10 in
  check "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 3;
  Bitset.add s 7;
  check "mem 3" true (Bitset.mem s 3);
  check "mem 4" false (Bitset.mem s 4);
  check_int "cardinal" 2 (Bitset.cardinal s);
  Bitset.remove s 3;
  check "removed" false (Bitset.mem s 3);
  Alcotest.(check (list int)) "to_list" [ 7 ] (Bitset.to_list s)

let test_bitset_large_universe () =
  (* Straddles several words. *)
  let n = 200 in
  let s = Bitset.create n in
  List.iter (Bitset.add s) [ 0; 61; 62; 63; 124; 199 ];
  check_int "cardinal" 6 (Bitset.cardinal s);
  check "mem 62" true (Bitset.mem s 62);
  check "mem 61" true (Bitset.mem s 61);
  let c = Bitset.complement s in
  check_int "complement cardinal" (n - 6) (Bitset.cardinal c);
  check "disjoint" false (Bitset.intersects s c);
  check "union is universe" true
    (Bitset.equal (Bitset.union s c) (Bitset.universe n))

let test_bitset_universe () =
  let u = Bitset.universe 63 in
  check_int "universe cardinal" 63 (Bitset.cardinal u);
  let u124 = Bitset.universe 124 in
  check_int "two-word universe" 124 (Bitset.cardinal u124)

let test_bitset_masks () =
  let s = Bitset.of_list 10 [ 1; 4; 9 ] in
  check_int "to_mask" ((1 lsl 1) lor (1 lsl 4) lor (1 lsl 9)) (Bitset.to_mask s);
  let s' = Bitset.of_mask ~n:10 (Bitset.to_mask s) in
  check "roundtrip" true (Bitset.equal s s');
  Bitset.blit_mask s' 0b101;
  Alcotest.(check (list int)) "blit" [ 0; 2 ] (Bitset.to_list s')

let test_popcount () =
  check_int "popcount 0" 0 (Bitset.popcount 0);
  check_int "popcount 255" 8 (Bitset.popcount 255);
  check_int "popcount max" 62 (Bitset.popcount ((1 lsl 62) - 1));
  check_int "popcount bit61" 1 (Bitset.popcount (1 lsl 61))

let bitset_ops_model =
  (* Compare against a sorted-int-list model. *)
  let gen = QCheck.(pair (list (int_bound 49)) (list (int_bound 49))) in
  QCheck.Test.make ~name:"bitset ops match list model" ~count:500 gen
    (fun (la, lb) ->
      let module S = Set.Make (Int) in
      let sa = S.of_list la and sb = S.of_list lb in
      let a = Bitset.of_list 50 la and b = Bitset.of_list 50 lb in
      S.elements (S.inter sa sb) = Bitset.to_list (Bitset.inter a b)
      && S.elements (S.union sa sb) = Bitset.to_list (Bitset.union a b)
      && S.elements (S.diff sa sb) = Bitset.to_list (Bitset.diff a b)
      && S.subset sa sb = Bitset.subset a b
      && (not (S.disjoint sa sb)) = Bitset.intersects a b
      && S.cardinal sa = Bitset.cardinal a)

let bitset_fold_iter =
  QCheck.Test.make ~name:"fold and iter agree" ~count:200
    QCheck.(list (int_bound 80))
    (fun l ->
      let s = Bitset.of_list 81 l in
      let via_fold = Bitset.fold (fun i acc -> i :: acc) s [] in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      via_fold = !via_iter)

(* --- Rng ----------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independence () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  check "split differs" true (Rng.bits64 c <> Rng.bits64 a)

let test_rng_int_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    check "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_range () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    check "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_bernoulli_mean () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int trials in
  check "mean near 0.3" true (abs_float (mean -. 0.3) < 0.02)

let test_rng_pick_weighted () =
  let r = Rng.create 4 in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 30_000 do
    let i = Rng.pick_weighted r ~weights:[| 1.0; 2.0; 1.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let f i = float_of_int counts.(i) /. 30_000.0 in
  check "w0 ~ 0.25" true (abs_float (f 0 -. 0.25) < 0.02);
  check "w1 ~ 0.5" true (abs_float (f 1 -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 5 in
  let total = ref 0.0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    total := !total +. Rng.exponential r ~mean:2.0
  done;
  check "exp mean ~ 2" true
    (abs_float ((!total /. float_of_int trials) -. 2.0) < 0.05)

let test_rng_shuffle_permutation () =
  let r = Rng.create 6 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* Reference splitmix64, its state in a [mutable int64] record field —
   the representation [Rng] had before its state moved into bytes.
   Every draw is written out from the definitions, not from [Rng]. *)
module Ref_rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let mix64 z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix64 t.state

  let split t =
    let seed = bits64 t in
    { state = mix64 seed }

  let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

  let int t bound =
    let rec loop () =
      let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
      let v = r mod bound in
      if r - v > max_int - bound + 1 then loop () else v
    in
    loop ()

  let float t =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
    float_of_int r *. 0x1.0p-53

  let bool t = Int64.logand (bits64 t) 1L = 1L
  let bernoulli t p = float t < p
  let exponential t ~mean = -.mean *. log (1.0 -. float t)
end

type rng_op =
  | Bits64
  | Bits53
  | Int of int
  | Float
  | Bool
  | Bernoulli of float
  | Exponential of float
  | Split
  | Copy
  | Advance of int

let print_rng_op = function
  | Bits64 -> "bits64"
  | Bits53 -> "bits53"
  | Int b -> Printf.sprintf "int %d" b
  | Float -> "float"
  | Bool -> "bool"
  | Bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Exponential m -> Printf.sprintf "exponential %h" m
  | Split -> "split"
  | Copy -> "copy"
  | Advance k -> Printf.sprintf "advance %d" k

(* Each draw's result as the bits of an [int64], so floats compare
   bit for bit. *)
let rng_matches_reference =
  let open QCheck.Gen in
  let op =
    oneof
      [
        oneofl [ Bits64; Bits53; Float; Bool; Split; Copy ];
        map (fun b -> Int b) (oneof [ int_range 1 10; int_range 1 max_int ]);
        map (fun p -> Bernoulli p) (float_range 0.0 1.0);
        map (fun m -> Exponential m) (float_range 0.0 10.0);
        map (fun k -> Advance k) (int_range 0 300);
      ]
  in
  let gen = pair int (list_size (int_range 0 60) op) in
  let print (seed, ops) =
    Printf.sprintf "seed %d: %s" seed
      (String.concat "; " (List.map print_rng_op ops))
  in
  QCheck.Test.make ~name:"every draw matches a reference splitmix64"
    ~count:500 (QCheck.make ~print gen) (fun (seed, ops) ->
      let r = Rng.create seed and m = Ref_rng.create seed in
      let of_bool b = if b then 1L else 0L in
      let step = function
        | Bits64 -> (Rng.bits64 r, Ref_rng.bits64 m)
        | Bits53 -> (Int64.of_int (Rng.bits53 r), Int64.of_int (Ref_rng.bits53 m))
        | Int b -> (Int64.of_int (Rng.int r b), Int64.of_int (Ref_rng.int m b))
        | Float ->
            (Int64.bits_of_float (Rng.float r), Int64.bits_of_float (Ref_rng.float m))
        | Bool -> (of_bool (Rng.bool r), of_bool (Ref_rng.bool m))
        | Bernoulli p -> (of_bool (Rng.bernoulli r p), of_bool (Ref_rng.bernoulli m p))
        | Exponential mean ->
            ( Int64.bits_of_float (Rng.exponential r ~mean),
              Int64.bits_of_float (Ref_rng.exponential m ~mean) )
        | Split ->
            (* The child's first draw; the parent has advanced once. *)
            (Rng.bits64 (Rng.split r), Ref_rng.bits64 (Ref_rng.split m))
        | Copy ->
            (* The copy draws what the original will draw next, and
               drawing from it leaves the original where it was. *)
            let c = Rng.copy r and cm = Ref_rng.copy m in
            let x = Rng.bits64 c in
            if x <> Ref_rng.bits64 cm then (x, Int64.lognot x) else (x, x)
        | Advance k ->
            (* [k] single-step draws, then the next one. *)
            Rng.advance r k;
            for _ = 1 to k do
              ignore (Ref_rng.bits64 m)
            done;
            (Rng.bits64 r, Ref_rng.bits64 m)
      in
      List.for_all (fun o -> let a, b = step o in a = b) ops
      && Rng.bits64 r = Ref_rng.bits64 m)

(* --- Failure_poly --------------------------------------------------- *)

let test_binomial () =
  check_float "C(5,2)" 10.0 (Failure_poly.binomial 5 2);
  check_float "C(28,14)" 40116600.0 (Failure_poly.binomial 28 14);
  check_float "C(5,-1)" 0.0 (Failure_poly.binomial 5 (-1));
  check_float "C(5,6)" 0.0 (Failure_poly.binomial 5 6)

let test_poly_always_fails () =
  let t = Failure_poly.always_fails ~n:6 in
  check_float "F(0.3) = 1" 1.0 (Failure_poly.eval t ~p:0.3);
  check_float "F(0) = 1" 1.0 (Failure_poly.eval t ~p:0.0)

let test_poly_singleton () =
  (* Singleton over 1 element: fails iff that element dies. *)
  let t = Failure_poly.of_fail_counts ~n:1 [| 1.0; 0.0 |] in
  check_float "F(p) = p" 0.37 (Failure_poly.eval t ~p:0.37);
  check_float "avail" 0.63 (Failure_poly.availability t ~p:0.37)

let test_poly_transversal_view () =
  let t = Failure_poly.of_fail_counts ~n:3 [| 1.0; 3.0; 1.0; 0.0 |] in
  check_float "a_0 = c_3" 0.0 (Failure_poly.transversal_count t 0);
  check_float "a_2 = c_1" 3.0 (Failure_poly.transversal_count t 2);
  check "valid" true (Failure_poly.complement_is_valid t)

(* --- Combinat ------------------------------------------------------- *)

let test_gosper_count () =
  let count = ref 0 in
  Combinat.iter_ksubset_masks ~n:10 ~k:3 (fun _ -> incr count);
  check_int "C(10,3)" 120 !count

let test_gosper_popcount () =
  Combinat.iter_ksubset_masks ~n:12 ~k:5 (fun m ->
      check_int "popcount 5" 5 (Bitset.popcount m))

let test_ksubsets () =
  check_int "C(5,2) lists" 10 (List.length (Combinat.ksubsets [ 1; 2; 3; 4; 5 ] 2));
  Alcotest.(check (list (list int)))
    "k=0" [ [] ]
    (Combinat.ksubsets [ 1; 2 ] 0)

let test_product () =
  let p = Combinat.product [ [ 1; 2 ]; [ 3 ]; [ 4; 5 ] ] in
  check_int "2*1*2" 4 (List.length p);
  check "first" true (List.hd p = [ 1; 3; 4 ]);
  Alcotest.(check (list (list int))) "empty" [ [] ] (Combinat.product [])

let test_choose_count () =
  check_int "C(28,14)" 40116600 (Combinat.choose_count 28 14);
  check_int "C(6,0)" 1 (Combinat.choose_count 6 0);
  check_int "C(6,7)" 0 (Combinat.choose_count 6 7);
  check_int "C(61,30)" 232_714_176_627_630_544 (Combinat.choose_count 61 30);
  (* Every C(n, k) up to n = 62 against Pascal's triangle by addition. *)
  let row = ref [| 1 |] in
  for n = 1 to 62 do
    let prev = !row in
    row := Array.init (n + 1) (fun k ->
      (if k > 0 then prev.(k - 1) else 0) + if k < n then prev.(k) else 0);
    Array.iteri
      (fun k c ->
        check_int (Printf.sprintf "C(%d,%d)" n k) c (Combinat.choose_count n k))
      !row
  done;
  (* thresh(61-30)'s count used to wrap negative and slip under the
     enumeration cap. *)
  let thresh = Systems.Thresh.system ~n:61 ~r:30 () in
  let t0 = Sys.time () in
  check "thresh(61-30) quorums refused" true
    (Result.is_error (Quorum.System.quorums thresh));
  check "refused within a second" true (Sys.time () -. t0 < 1.0)

(* --- Coterie -------------------------------------------------------- *)

let bs = Bitset.of_list

let test_intersection_check () =
  let q = [ bs 4 [ 0; 1 ]; bs 4 [ 1; 2 ]; bs 4 [ 0; 2 ] ] in
  check "intersecting" true (Coterie.all_intersect q);
  let q' = [ bs 4 [ 0; 1 ]; bs 4 [ 2; 3 ] ] in
  check "disjoint pair" false (Coterie.all_intersect q')

let test_antichain () =
  check "antichain" true (Coterie.is_antichain [ bs 4 [ 0; 1 ]; bs 4 [ 1; 2 ] ]);
  check "contained" false
    (Coterie.is_antichain [ bs 4 [ 0; 1 ]; bs 4 [ 0; 1; 2 ] ])

let test_minimize () =
  let q = [ bs 4 [ 0; 1; 2 ]; bs 4 [ 0; 1 ]; bs 4 [ 0; 1 ]; bs 4 [ 2; 3 ] ] in
  let m = Coterie.minimize q in
  check_int "two kept" 2 (List.length m);
  check "antichain result" true (Coterie.is_antichain m)

let test_dominates () =
  (* {0} dominates {{0,1},{0,2}} *)
  let c = [ bs 3 [ 0 ] ] in
  let d = [ bs 3 [ 0; 1 ]; bs 3 [ 0; 2 ] ] in
  check "singleton dominates" true (Coterie.dominates c d);
  check "self no dominate" false (Coterie.dominates d d)

let test_minimal_of_avail_majority () =
  (* Majority over 5: minimal quorums are the C(5,3)=10 triples. *)
  let avail mask = Bitset.popcount mask >= 3 in
  let quorums = Coterie.minimal_of_avail ~n:5 avail in
  check_int "ten triples" 10 (List.length quorums);
  List.iter
    (fun q -> check_int "size 3" 3 (Bitset.cardinal q))
    quorums

let test_transversal_counts_singleton () =
  (* Singleton {0} over 2 elements: fails iff 0 is dead.
     dead-sets hitting the quorum: {0} and {0,1}. *)
  let s = Quorum.System.of_quorums ~name:"singleton" ~n:2 [ bs 2 [ 0 ] ] in
  let a = Failure_poly.transversal_count (Analysis.Failure.exact_poly s) in
  check_float "one 1-transversal" 1.0 (a 1);
  check_float "one 2-transversal" 1.0 (a 2);
  check_float "no 0-transversal" 0.0 (a 0)

(* --- Strategy ------------------------------------------------------- *)

let test_strategy_uniform_loads () =
  let quorums = [ bs 3 [ 0; 1 ]; bs 3 [ 1; 2 ]; bs 3 [ 0; 2 ] ] in
  let s = Strategy.uniform quorums in
  let loads = Strategy.element_loads s in
  Array.iter (fun l -> check_float "balanced 2/3" (2.0 /. 3.0) l) loads;
  check_float "system load" (2.0 /. 3.0) (Strategy.system_load s);
  check_float "avg size" 2.0 (Strategy.average_quorum_size s)

let test_strategy_weighted () =
  let s =
    Strategy.make
      [| bs 2 [ 0 ]; bs 2 [ 1 ] |]
      [| 3.0; 1.0 |]
  in
  let loads = Strategy.element_loads s in
  check_float "elem0" 0.75 loads.(0);
  check_float "elem1" 0.25 loads.(1)

let test_strategy_sample () =
  let s =
    Strategy.make [| bs 2 [ 0 ]; bs 2 [ 1 ] |] [| 1.0; 0.0 |]
  in
  let rng = Rng.create 11 in
  for _ = 1 to 50 do
    check "always first" true (Bitset.mem (Strategy.sample s rng) 0)
  done

let test_empirical_of_select () =
  let rng = Rng.create 13 in
  let select _rng ~live:_ = Some (bs 4 [ 0; 1 ]) in
  let e = Strategy.empirical_of_select ~n:4 ~trials:100 rng select in
  check_float "load 0" 1.0 e.loads.(0);
  check_float "load 3" 0.0 e.loads.(3);
  check_float "avg size" 2.0 e.avg_size;
  check_int "no misses" 0 e.misses

let qsuite name tests = (name, tests)

let () =
  Alcotest.run "quorum"
    [
      qsuite "bitset"
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "large universe" `Quick test_bitset_large_universe;
          Alcotest.test_case "universe" `Quick test_bitset_universe;
          Alcotest.test_case "masks" `Quick test_bitset_masks;
          Alcotest.test_case "popcount" `Quick test_popcount;
          QCheck_alcotest.to_alcotest bitset_ops_model;
          QCheck_alcotest.to_alcotest bitset_fold_iter;
        ];
      qsuite "rng"
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independence;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "pick_weighted" `Quick test_rng_pick_weighted;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest rng_matches_reference;
        ];
      qsuite "failure_poly"
        [
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "always fails" `Quick test_poly_always_fails;
          Alcotest.test_case "singleton" `Quick test_poly_singleton;
          Alcotest.test_case "transversal view" `Quick test_poly_transversal_view;
        ];
      qsuite "combinat"
        [
          Alcotest.test_case "gosper count" `Quick test_gosper_count;
          Alcotest.test_case "gosper popcount" `Quick test_gosper_popcount;
          Alcotest.test_case "ksubsets" `Quick test_ksubsets;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "choose_count" `Quick test_choose_count;
        ];
      qsuite "coterie"
        [
          Alcotest.test_case "intersection" `Quick test_intersection_check;
          Alcotest.test_case "antichain" `Quick test_antichain;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "minimal_of_avail" `Quick
            test_minimal_of_avail_majority;
          Alcotest.test_case "transversal counts" `Quick
            test_transversal_counts_singleton;
        ];
      qsuite "strategy"
        [
          Alcotest.test_case "uniform loads" `Quick test_strategy_uniform_loads;
          Alcotest.test_case "weighted" `Quick test_strategy_weighted;
          Alcotest.test_case "sample" `Quick test_strategy_sample;
          Alcotest.test_case "empirical" `Quick test_empirical_of_select;
        ];
    ]
