(* Tests for the domain pool (lib/exec) and the determinism contract
   of every parallel analysis path: a pool changes only where the work
   runs, so every pooled result, for jobs = 1, 2 and 4, equals the
   result without a pool bit for bit, and that one equals the
   one-stream or depth-first loop it replaced. *)

module Pool = Exec.Pool
module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng
module Failure = Analysis.Failure

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Shared pools, one per jobs count; shut down by the final test. *)
let pools = lazy (List.map (fun jobs -> Pool.create ~jobs ()) [ 1; 2; 4 ])

let with_pools f = List.iter f (Lazy.force pools)

(* --- pool unit tests ----------------------------------------------- *)

let test_map_chunks () =
  with_pools (fun p ->
      let squares = Pool.map_chunks p ~chunks:17 (fun i -> i * i) in
      check_int "length" 17 (Array.length squares);
      Array.iteri (fun i sq -> check_int "square" (i * i) sq) squares)

let test_iter_chunks_disjoint_slots () =
  with_pools (fun p ->
      let slots = Array.make 33 (-1) in
      Pool.iter_chunks p ~chunks:33 (fun i -> slots.(i) <- 2 * i);
      Array.iteri (fun i v -> check_int "slot" (2 * i) v) slots)

let test_empty_batch () =
  with_pools (fun p ->
      Pool.iter_chunks p ~chunks:0 (fun _ -> Alcotest.fail "ran a chunk");
      check_int "empty map" 0 (Array.length (Pool.map_chunks p ~chunks:0 (fun i -> i)));
      check_int "empty array" 0 (Array.length (Pool.map_array p (fun x -> x) [||])))

let test_map_array () =
  with_pools (fun p ->
      let doubled = Pool.map_array p (fun x -> 2 * x) [| 5; 6; 7 |] in
      check "doubled" true (doubled = [| 10; 12; 14 |]))

let test_exception_propagation () =
  (* The lowest-numbered failing chunk wins, whatever the domain count. *)
  with_pools (fun p ->
      match
        Pool.iter_chunks p ~chunks:16 (fun i ->
            if i >= 3 then failwith (string_of_int i))
      with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure m -> check_string "lowest failing chunk" "3" m);
  (* The batch still ran to completion: the pool is reusable after. *)
  with_pools (fun p ->
      check_int "reusable" 4 (Array.length (Pool.map_chunks p ~chunks:4 Fun.id)))

let test_nested_submission_rejected () =
  with_pools (fun p ->
      match
        Pool.iter_chunks p ~chunks:2 (fun _ ->
            Pool.iter_chunks p ~chunks:1 (fun _ -> ()))
      with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_reduce_tree () =
  let f a b = "(" ^ a ^ b ^ ")" in
  (* The documented shape: adjacent pairs, repeatedly. *)
  check_string "5 leaves" "(((ab)(cd))e)"
    (Pool.reduce_tree f [| "a"; "b"; "c"; "d"; "e" |]);
  check_string "1 leaf" "a" (Pool.reduce_tree f [| "a" |]);
  (match Pool.reduce_tree f [||] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* Deterministic float sums: same array, same result, every time. *)
  let xs = Array.init 1000 (fun i -> 1.0 /. float_of_int (i + 1)) in
  check "repeatable" true
    (Pool.reduce_tree ( +. ) xs = Pool.reduce_tree ( +. ) xs)

let test_with_pool_and_shutdown () =
  let escaped = Pool.with_pool ~jobs:2 (fun p ->
      check_int "jobs" 2 (Pool.jobs p);
      check_int "usable" 3 (Array.length (Pool.map_chunks p ~chunks:3 Fun.id));
      p)
  in
  (* with_pool shut the pool down; later submissions are rejected. *)
  (match Pool.map_chunks escaped ~chunks:1 Fun.id with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  (* shutdown is idempotent. *)
  Pool.shutdown escaped;
  Pool.shutdown escaped

(* --- determinism of the parallel analysis paths --------------------- *)

(* Small enumerable systems covering distinct construction shapes.
   paths(2) matters: its avail predicates reuse DFS scratch buffers, so
   it pins the per-domain re-entrancy of construction-provided masks. *)
let det_specs =
  [|
    "majority(11)";
    "wall(1-2-2-3)";
    "grid-rw(3x4)";
    "htgrid(3x3)";
    "y(10)";
    "htriang(10)";
    "paths(2)";
  |]

let spec_arb =
  QCheck.make
    ~print:(fun i -> det_specs.(i))
    QCheck.Gen.(int_bound (Array.length det_specs - 1))

let build i = Core.Registry.build_exn det_specs.(i)

(* Majority, grid, h-grid and h-triang count their available sets
   from structure and leave the pool unused; without the counts,
   [exact_poly] walks the masks on it. *)
let walked i = { (build i) with System.avail_counts = None }

let poly_counts s poly =
  List.init (s.System.n + 1) (Quorum.Failure_poly.fail_count poly)

let exact_poly_deterministic =
  QCheck.Test.make ~name:"exact_poly: pooled = sequential, any jobs"
    ~count:12 spec_arb
    (fun i ->
      let s = walked i in
      let oracle = poly_counts s (Failure.exact_poly s) in
      List.for_all
        (fun p -> poly_counts s (Failure.exact_poly ~pool:p s) = oracle)
        (Lazy.force pools))

(* The one-stream sampler every Monte-Carlo estimate must equal: one
   Bernoulli draw per process per trial, all from [rng]. *)
let one_stream_failures rng (s : System.t) ~p_of ~trials =
  let live = Bitset.create s.System.n in
  let failures = ref 0 in
  for _ = 1 to trials do
    Bitset.clear live;
    for i = 0 to s.System.n - 1 do
      if not (Rng.bernoulli rng (p_of i)) then Bitset.add live i
    done;
    if not (s.System.avail live) then incr failures
  done;
  !failures

(* An estimate with the draw that follows it: equal pairs mean equal
   estimates and the caller's stream left at the same place. *)
let with_next rng f =
  let (e : Failure.estimate) = f rng in
  ((e.mean, e.half_width, e.trials), Rng.bits64 rng)

let mc_matches_one_stream ~seed ~trials s ~p_of estimate =
  let oracle =
    let rng = Rng.create seed in
    let failures = one_stream_failures rng s ~p_of ~trials in
    let mean = float_of_int failures /. float_of_int trials in
    ( (mean, 1.96 *. sqrt (mean *. (1.0 -. mean) /. float_of_int trials), trials),
      Rng.bits64 rng )
  in
  let run pool = with_next (Rng.create seed) (estimate ?pool) in
  run None = oracle
  && List.for_all (fun p -> run (Some p) = oracle) (Lazy.force pools)

let monte_carlo_deterministic =
  QCheck.Test.make
    ~name:"monte_carlo: pooled estimate independent of the pool, stream \
           included"
    ~count:12
    QCheck.(triple spec_arb (int_bound 10_000) (int_range 1 3_000))
    (fun (i, seed, trials) ->
      let s = build i in
      mc_matches_one_stream ~seed ~trials s
        ~p_of:(fun _ -> 0.3)
        (fun ?pool rng -> Failure.monte_carlo ?pool ~trials rng s ~p:0.3))

let monte_carlo_hetero_deterministic =
  QCheck.Test.make
    ~name:"monte_carlo_hetero: pooled = sequential, stream included"
    ~count:12
    QCheck.(triple spec_arb (int_bound 10_000) (int_range 1 3_000))
    (fun (i, seed, trials) ->
      let s = build i in
      let rng = Rng.create (seed + 1) in
      let p = Array.init s.System.n (fun _ -> 0.9 *. Rng.float rng) in
      let p_of i = p.(i) in
      mc_matches_one_stream ~seed ~trials s ~p_of (fun ?pool rng ->
          Failure.monte_carlo_hetero ?pool ~trials rng s ~p_of))

(* Above 12 processes [exact_hetero] runs in chunks, so these cover the
   chunked sum: 13 to 18 processes. *)
let hetero_specs =
  [|
    "majority(15)";
    "majority(17)";
    "htriang(15)";
    "y(15)";
    "hqs(3-5)";
    "grid-rw(4x4)";
    "htgrid(4x4)";
    "wall(1-2-3-4-5)";
    "paths(2)";
    "tree(15)";
    "hgrid(3x6)";
  |]

(* The depth-first walk every [exact_hetero] result must equal. *)
let dfs_oracle (s : System.t) ~p_of =
  let avail = System.avail_mask_exn s in
  let rec walk i mask prob =
    if prob = 0.0 then 0.0
    else if i = s.System.n then if avail mask then 0.0 else prob
    else
      let p = p_of i in
      walk (i + 1) mask (prob *. p)
      +. walk (i + 1) (mask lor (1 lsl i)) (prob *. (1.0 -. p))
  in
  walk 0 0 1.0

let exact_hetero_deterministic =
  QCheck.Test.make
    ~name:"exact_hetero: pooled independent of the pool, = DFS bit for bit"
    ~count:24
    QCheck.(
      pair
        (make
           ~print:(fun i -> hetero_specs.(i))
           Gen.(int_bound (Array.length hetero_specs - 1)))
        (int_bound 10_000))
    (fun (i, seed) ->
      let s = Core.Registry.build_exn hetero_specs.(i) in
      let rng = Rng.create seed in
      let p = Array.init s.System.n (fun _ -> 0.9 *. Rng.float rng) in
      let p_of i = p.(i) in
      let oracle = Int64.bits_of_float (dfs_oracle s ~p_of) in
      let bits pool = Int64.bits_of_float (Failure.exact_hetero ?pool s ~p_of) in
      bits None = oracle
      && List.for_all (fun p -> bits (Some p) = oracle) (Lazy.force pools))

let test_empirical_live () =
  (* ?live: selections respect the live set, so a dead element carries
     zero load, and the default (no ~live) is the fully-live universe. *)
  let s = Core.Registry.build_exn "htriang(10)" in
  let live = Bitset.universe s.System.n in
  Bitset.remove live 0;
  let e =
    Quorum.Strategy.empirical_of_select ~live ~n:s.System.n ~trials:2_000
      (Rng.create 5) s.System.select
  in
  check "dead element unloaded" true (e.Quorum.Strategy.loads.(0) = 0.0);
  check_int "no misses" 0 e.Quorum.Strategy.misses;
  let default_e =
    Quorum.Strategy.empirical_of_select ~n:s.System.n ~trials:500
      (Rng.create 6) s.System.select
  in
  let universe_e =
    Quorum.Strategy.empirical_of_select ~live:(Bitset.universe s.System.n)
      ~n:s.System.n ~trials:500 (Rng.create 6) s.System.select
  in
  check "default live = universe" true
    (default_e.Quorum.Strategy.loads = universe_e.Quorum.Strategy.loads)

let test_shutdown_pools () = List.iter Pool.shutdown (Lazy.force pools)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map_chunks" `Quick test_map_chunks;
          Alcotest.test_case "iter_chunks slots" `Quick
            test_iter_chunks_disjoint_slots;
          Alcotest.test_case "empty batches" `Quick test_empty_batch;
          Alcotest.test_case "map_array" `Quick test_map_array;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested submission rejected" `Quick
            test_nested_submission_rejected;
          Alcotest.test_case "reduce_tree" `Quick test_reduce_tree;
          Alcotest.test_case "with_pool / shutdown" `Quick
            test_with_pool_and_shutdown;
        ] );
      ( "determinism",
        [
          qc exact_poly_deterministic;
          qc monte_carlo_deterministic;
          qc monte_carlo_hetero_deterministic;
          qc exact_hetero_deterministic;
          Alcotest.test_case "empirical ?live" `Quick test_empirical_live;
          Alcotest.test_case "shutdown shared pools" `Quick
            test_shutdown_pools;
        ] );
    ]
