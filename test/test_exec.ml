(* Tests for the domain pool (lib/exec) and the determinism contract
   of every parallel analysis path: pooled results must be identical
   for jobs = 1, 2 and 4, and — where promised — equal to the original
   sequential code path bit for bit. *)

module Pool = Exec.Pool
module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng
module Strategy = Quorum.Strategy
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

let monte_carlo_deterministic =
  QCheck.Test.make ~name:"monte_carlo: pooled estimate independent of jobs"
    ~count:12
    QCheck.(pair spec_arb (int_bound 10_000))
    (fun (i, seed) ->
      let s = build i in
      let est p =
        Failure.monte_carlo ?pool:p ~trials:4_096 (Rng.create seed) s ~p:0.3
      in
      match List.map (fun p -> est (Some p)) (Lazy.force pools) with
      | [] -> true
      | e0 :: rest -> List.for_all (( = ) e0) rest)

let exact_hetero_deterministic =
  QCheck.Test.make ~name:"exact_hetero: pooled independent of jobs, ~= DFS"
    ~count:8
    QCheck.(pair spec_arb (int_bound 10_000))
    (fun (i, seed) ->
      let s = build i in
      let rng = Rng.create seed in
      let p = Array.init s.System.n (fun _ -> 0.9 *. Rng.float rng) in
      let p_of i = p.(i) in
      let oracle = Failure.exact_hetero s ~p_of in
      let pooled =
        List.map (fun p -> Failure.exact_hetero ~pool:p s ~p_of)
          (Lazy.force pools)
      in
      (match pooled with
      | [] -> true
      | f0 :: rest -> List.for_all (( = ) f0) rest)
      && List.for_all (fun f -> abs_float (f -. oracle) < 1e-12) pooled)

(* Every selector family the simulator runs, for the pooled selection
   test: the specs above, weighted voting with uneven votes, even-n
   majority, h-grid read / write / rw, and placements through
   [System.embed] and [Shard_router]. *)
let select_systems =
  let spec name = (name, fun () -> Core.Registry.build_exn name) in
  let shard read ~shard =
    ( Printf.sprintf "shard %d %s" shard (if read then "read" else "write"),
      fun () ->
        match Protocols.Shard_router.create ~universe:15 ~shards:3 () with
        | Error e -> failwith e
        | Ok r ->
            if read then Protocols.Shard_router.shard_read_system r ~shard
            else Protocols.Shard_router.shard_write_system r ~shard )
  in
  Array.append
    (Array.map spec det_specs)
    [|
      spec "voting(1-2-3-1-2-1)";
      spec "majority(10)";
      spec "hgrid-read(4x4)";
      spec "hgrid-write(6x4)";
      spec "hgrid(2x3)";
      ( "embed htriang(6)/20",
        fun () ->
          System.embed ~universe:20 ~place:[| 3; 17; 5; 11; 0; 8 |]
            (Core.Registry.build_exn "htriang(6)") );
      shard true ~shard:1;
      shard false ~shard:2;
    |]

let select_arb =
  QCheck.make
    ~print:(fun i -> fst select_systems.(i))
    QCheck.Gen.(int_bound (Array.length select_systems - 1))

let empirical_deterministic =
  QCheck.Test.make
    ~name:"empirical_of_select: pooled loads independent of jobs" ~count:24
    QCheck.(pair select_arb (int_bound 10_000))
    (fun (i, seed) ->
      let s = snd select_systems.(i) () in
      (* Force any lazy quorum list before sharing select across
         domains (the documented contract). *)
      System.prepare s;
      let run p =
        Strategy.empirical_of_select ?pool:p ~n:s.System.n ~trials:2_000
          (Rng.create seed) s.System.select
      in
      match List.map (fun p -> run (Some p)) (Lazy.force pools) with
      | [] -> true
      | e0 :: rest ->
          List.for_all
            (fun (e : Strategy.empirical) ->
              e.loads = e0.loads && e.max_load = e0.max_load
              && e.avg_size = e0.avg_size
              && e.misses = e0.misses)
            rest)

let test_empirical_live () =
  (* ?live: selections respect the live set, so a dead element carries
     zero load, and the default (no ~live) is the fully-live universe. *)
  let s = Core.Registry.build_exn "htriang(10)" in
  System.prepare s;
  let live = Bitset.universe s.System.n in
  Bitset.remove live 0;
  with_pools (fun p ->
      let e =
        Strategy.empirical_of_select ~pool:p ~live ~n:s.System.n
          ~trials:2_000 (Rng.create 5) s.System.select
      in
      check "dead element unloaded" true (e.Strategy.loads.(0) = 0.0);
      check_int "no misses" 0 e.Strategy.misses);
  let default_e =
    Strategy.empirical_of_select ~n:s.System.n ~trials:500 (Rng.create 6)
      s.System.select
  in
  let universe_e =
    Strategy.empirical_of_select ~live:(Bitset.universe s.System.n)
      ~n:s.System.n ~trials:500 (Rng.create 6) s.System.select
  in
  check "default live = universe" true
    (default_e.Strategy.loads = universe_e.Strategy.loads)

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
          qc exact_hetero_deterministic;
          qc empirical_deterministic;
          Alcotest.test_case "empirical ?live" `Quick test_empirical_live;
          Alcotest.test_case "shutdown shared pools" `Quick
            test_shutdown_pools;
        ] );
    ]
