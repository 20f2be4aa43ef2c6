(* Workload optimizer suite: the unified Analysis.Workload record, the
   programmatic Registry instantiation catalogue, the thresh family,
   the mixed read/write load LP, Pareto frontier soundness and
   completeness (qcheck against brute force), bit-identical pooled
   sweeps for jobs 1, 2 and 4, and sweeps that share load LPs equal to
   their candidates evaluated alone. *)

module W = Analysis.Workload
module O = Analysis.Optimizer
module Registry = Core.Registry
module System = Quorum.System
module Bitset = Quorum.Bitset
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.fail ("unexpected error: " ^ msg)

let is_error = function Error _ -> true | Ok _ -> false

(* --- Workload ------------------------------------------------------- *)

let test_workload_validation () =
  check "fr out of range" true (is_error (W.make ~read_fraction:1.5 ()));
  check "negative fr" true (is_error (W.make ~read_fraction:(-0.1) ()));
  check "negative resilience" true
    (is_error (W.make ~resilience:(-1) ~read_fraction:0.5 ()));
  check "bad iid p" true
    (is_error (W.make ~failures:(W.Iid 1.5) ~read_fraction:0.5 ()));
  check "bad per-process p" true
    (is_error
       (W.make ~failures:(W.Per_process [| 0.1; 2.0 |]) ~read_fraction:0.5 ()));
  let w = ok_exn (W.make ~read_fraction:0.9 ()) in
  checkf "default is iid 0.1"
    (match w.W.failures with W.Iid p -> p | _ -> nan)
    0.1;
  check_int "default f" 1 w.W.resilience;
  (* n-dependent checks *)
  check "ok at n" true (not (is_error (W.validate w ~n:5)));
  check "f >= n rejected" true
    (is_error
       (W.validate (ok_exn (W.make ~resilience:5 ~read_fraction:0.5 ())) ~n:5));
  let hetero2 =
    ok_exn (W.make ~failures:(W.Per_process [| 0.1; 0.2 |]) ~read_fraction:0.5 ())
  in
  check "vector length must match n" true (is_error (W.validate hetero2 ~n:3));
  let topo = W.Topology (Sim.Topology.ring ~n:4 ~radius:1.0) in
  check "topology too small" true
    (is_error
       (W.validate (ok_exn (W.make ~latency:topo ~read_fraction:0.5 ())) ~n:5))

let test_workload_hetero_and_p_of () =
  let fm = ok_exn (W.hetero ~n:4 ~base:0.1 [ (2, 0.4) ]) in
  let w = ok_exn (W.make ~failures:fm ~read_fraction:0.5 ()) in
  let p_of = ok_exn (W.p_of w ~n:4) in
  checkf "override applies" 0.4 (p_of 2);
  checkf "base elsewhere" 0.1 (p_of 0);
  check "id out of range" true (is_error (W.hetero ~n:4 ~base:0.1 [ (4, 0.2) ]));
  check "bad override p" true (is_error (W.hetero ~n:4 ~base:0.1 [ (0, 7.0) ]))

(* --- Registry instantiations ---------------------------------------- *)

let families_at n =
  List.map (fun ((e : Registry.entry), _) -> e.Registry.family)
    (Registry.instantiations ~n)

let test_instantiations_build_at_exact_n () =
  List.iter
    (fun n ->
      List.iter
        (fun ((_ : Registry.entry), specs) ->
          List.iter
            (fun spec ->
              let s = ok_exn (Registry.build spec) in
              check_int (spec ^ " has exact n") n s.System.n)
            specs)
        (Registry.instantiations ~n))
    [ 15; 13; 12 ]

let test_instantiations_membership () =
  let at15 = families_at 15 in
  List.iter
    (fun f -> check (f ^ " at 15") true (List.mem f at15))
    [ "majority"; "htriang"; "hqs"; "triangle"; "y"; "wall"; "diamond";
      "grid-read"; "hgrid"; "tree" ];
  check "fpp not at 15" false (List.mem "fpp" at15);
  let at13 = families_at 13 in
  check "fpp at 13" true (List.mem "fpp" at13);
  check "no hqs at 13 (prime)" false (List.mem "hqs" at13);
  check "no htriang at 13" false (List.mem "htriang" at13);
  let at12 = families_at 12 in
  check "paths at 12 (2d(d+1))" true (List.mem "paths" at12);
  check "grids at 12" true (List.mem "grid-rw" at12)

(* --- Thresh family --------------------------------------------------- *)

let test_thresh_structure () =
  let s = Systems.Thresh.system ~n:5 ~r:3 () in
  let quorums = ok_exn (System.quorums s) in
  check_int "C(5,3) quorums" 10 (List.length quorums);
  check "2r > n quorums pairwise intersect" true
    (Quorum.Coterie.all_intersect quorums);
  (* read/write halves intersect by counting: r + w = n + 1 *)
  let reads = ok_exn (System.quorums (Systems.Thresh.system ~n:5 ~r:2 ())) in
  let writes = ok_exn (System.quorums (Systems.Thresh.system ~n:5 ~r:4 ())) in
  check "r-of-n intersects (n+1-r)-of-n" true
    (List.for_all
       (fun rq -> List.for_all (fun wq -> Bitset.intersects rq wq) writes)
       reads);
  (* selection picks an r-subset of the live set *)
  let rng = Rng.create 3 in
  let live = Bitset.of_list 5 [ 0; 2; 3; 4 ] in
  for _ = 1 to 20 do
    match s.System.select rng ~live with
    | None -> Alcotest.fail "select failed with 4 live of r=3"
    | Some q ->
        check_int "quorum size r" 3 (Bitset.cardinal q);
        check "within live" true (Bitset.subset q live)
  done;
  check "unavailable below r" true
    (s.System.select rng ~live:(Bitset.of_list 5 [ 0; 1 ]) = None);
  (* registry spelling *)
  let s' = ok_exn (Registry.build "thresh(5-3)") in
  check_int "registry thresh n" 5 s'.System.n;
  (* enumeration refuses beyond the cap, as an Error not an exception *)
  check "cap refusal is an Error" true
    (is_error (System.quorums (Systems.Thresh.system ~n:40 ~r:20 ())))

let test_thresh_hetero_dp_matches_enumeration () =
  let p_of i = [| 0.05; 0.3; 0.1; 0.2; 0.15; 0.25 |].(i) in
  List.iter
    (fun r ->
      let s = Systems.Thresh.system ~n:6 ~r () in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "dp = enumeration at r=%d" r)
        (Analysis.Failure.exact_hetero s ~p_of)
        (Systems.Thresh.failure_probability_hetero ~n:6 ~r ~p_of))
    [ 1; 2; 3; 4; 5; 6 ]

(* --- Load: mixed LP vs plain LP and the closed form ------------------ *)

let test_mixed_lp_equals_plain_lp_when_symmetric () =
  List.iter
    (fun spec ->
      let s = ok_exn (Registry.build spec) in
      let quorums = ok_exn (System.quorums s) in
      let plain = (Analysis.Load.optimal_of_quorums ~n:s.System.n quorums).load in
      List.iter
        (fun fr ->
          let mixed, _, _ =
            ok_exn
              (O.mixed_load ~read_fraction:fr ~n:s.System.n ~reads:quorums
                 ~writes:quorums)
          in
          Alcotest.(check (float 1e-7))
            (Printf.sprintf "%s mixed = plain at fr=%.2f" spec fr)
            plain mixed)
        [ 0.0; 0.3; 0.5; 0.9; 1.0 ])
    [ "majority(15)"; "htriang(15)" ]

let test_thresh_analytic_equals_mixed_lp () =
  let n = 5 and r = 2 in
  let reads = ok_exn (System.quorums (Systems.Thresh.system ~n ~r ())) in
  let writes =
    ok_exn (System.quorums (Systems.Thresh.system ~n ~r:(n + 1 - r) ()))
  in
  List.iter
    (fun fr ->
      let mixed, _, _ =
        ok_exn (O.mixed_load ~read_fraction:fr ~n ~reads ~writes)
      in
      Alcotest.(check (float 1e-7))
        (Printf.sprintf "closed form = LP at fr=%.2f" fr)
        (O.threshold_pair_load ~n ~read_fraction:fr ~r)
        mixed)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* --- evaluate -------------------------------------------------------- *)

let test_evaluate_majority () =
  let w = ok_exn (W.make ~read_fraction:0.9 ()) in
  let cand =
    { O.label = "majority(15)"; read_spec = "majority(15)";
      write_spec = "majority(15)" }
  in
  let pt, witness = ok_exn (O.evaluate ~workload:w cand) in
  check "resilient at f=1" true (witness = None);
  Alcotest.(check (float 1e-7)) "load 8/15" (8.0 /. 15.0) pt.O.load;
  Alcotest.(check (float 1e-7)) "size 8" 8.0 pt.O.size;
  checkf "no topology, no rtt" 0.0 pt.O.rtt;
  let s = ok_exn (Registry.build "majority(15)") in
  let f = Analysis.Failure.exact s ~p:0.1 in
  Alcotest.(check (float 1e-9)) "availability from exact F" (1.0 -. f)
    pt.O.availability;
  (* singleton misses f = 1 with a concrete witness *)
  let sing =
    { O.label = "singleton(15)"; read_spec = "singleton(15)";
      write_spec = "singleton(15)" }
  in
  match ok_exn (O.evaluate ~workload:w sing) with
  | _, Some wit -> check "witness names a crash set" true (String.length wit > 0)
  | _, None -> Alcotest.fail "singleton cannot be 1-resilient"

(* hqs(4-4-4) would list 67,108,864 quorums, cwlog(64) 4,975,274,656,
   grid-rw(8x8) 16,777,216 and grid-rw(16x4) 17,179,869,184: the count
   refuses each before building any quorum, so the optimizer measures
   its selection strategy instead of running out of memory. *)
let test_evaluate_past_cap specs () =
  let w = ok_exn (W.make ~read_fraction:0.5 ()) in
  List.iter
    (fun spec ->
      let s = ok_exn (Registry.build spec) in
      let t0 = Sys.time () in
      check (spec ^ ": quorums refused") true (is_error (System.quorums s));
      check (spec ^ ": refused within a second") true
        (Sys.time () -. t0 < 1.0);
      let cand = { O.label = spec; read_spec = spec; write_spec = spec } in
      let pt, _ = ok_exn (O.evaluate ~trials:2_000 ~workload:w cand) in
      check (spec ^ ": empirical point") true (pt.O.source = O.Empirical))
    specs

(* --- Pareto: qcheck soundness + brute-force completeness ------------- *)

let frontier_sound_and_complete =
  QCheck.Test.make ~count:8
    ~name:"sweep frontier is Pareto-sound and complete (n=10)"
    QCheck.(float_range 0.0 1.0)
    (fun fr ->
      let w =
        match W.make ~read_fraction:fr () with
        | Ok w -> w
        | Error _ -> QCheck.assume_fail ()
      in
      let r = match O.sweep ~workload:w ~n:10 () with
        | Ok r -> r
        | Error m -> QCheck.Test.fail_report m
      in
      let evaluated = r.O.frontier @ List.map fst r.O.dominated in
      let dominates a b = O.pareto [ a; b ] = ([ a ], [ (b, a) ]) in
      (* sound: no evaluated point dominates a frontier point *)
      List.for_all
        (fun p -> not (List.exists (fun q -> dominates q p) evaluated))
        r.O.frontier
      (* complete: every dominated point has a frontier dominator *)
      && List.for_all
           (fun (p, _) -> List.exists (fun q -> dominates q p) r.O.frontier)
           r.O.dominated)

let test_frontier_matches_brute_force_fixture () =
  let specs =
    [ "majority(15)"; "htriang(15)"; "tree(15)"; "hqs(5-3)"; "cwlog(15)" ]
  in
  let cands =
    List.map (fun s -> { O.label = s; read_spec = s; write_spec = s }) specs
  in
  let w = ok_exn (W.make ~read_fraction:0.8 ()) in
  let r = ok_exn (O.sweep ~candidates:cands ~workload:w ~n:15 ()) in
  (* brute force: evaluate each candidate independently, then O(k^2)
     pairwise dominance over the pooled points *)
  let points =
    List.map (fun c -> fst (ok_exn (O.evaluate ~workload:w c))) cands
  in
  let dominates a b = O.pareto [ a; b ] = ([ a ], [ (b, a) ]) in
  let brute =
    List.filter
      (fun p -> not (List.exists (fun q -> dominates q p) points))
      points
    |> List.map (fun (p : O.point) -> p.O.label)
    |> List.sort compare
  in
  let swept =
    List.map (fun (p : O.point) -> p.O.label) r.O.frontier |> List.sort compare
  in
  Alcotest.(check (list string)) "frontier = brute force" brute swept;
  check_int "everything classified"
    (List.length specs)
    (List.length r.O.frontier + List.length r.O.dominated
    + List.length r.O.unresilient + List.length r.O.errors)

(* --- Determinism: pooled sweep bit-identical for jobs 1/2/4 ---------- *)

let test_sweep_jobs_deterministic () =
  let w =
    ok_exn
      (W.make
         ~latency:(W.Topology (Sim.Topology.ring ~n:15 ~radius:1.0))
         ~read_fraction:0.9 ())
  in
  let run pool = ok_exn (O.sweep ?pool ~workload:w ~n:15 ()) in
  let reference = run None in
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~name:"test" ~jobs (fun pool ->
          let r = run (Some pool) in
          check
            (Printf.sprintf "report identical at jobs=%d" jobs)
            true
            (r = reference);
          Alcotest.(check string)
            (Printf.sprintf "render identical at jobs=%d" jobs)
            (O.render reference) (O.render r)))
    [ 1; 2; 4 ]

(* --- Shared LPs: a sweep equals its candidates evaluated alone ------- *)

(* A sweep solves each distinct load LP once and hands the result to
   every candidate with that LP.  Every point, witness and error must
   be the one [evaluate] gives the candidate alone, with the seed the
   sweep derives for it.  At n = 9 and 12, candidates with different
   quorum lists have equal quorum counts (majority(12) and
   majority-plain(12), hqs(3-3) and grid-rw(3x3)); the ring topology
   makes rtt read the shared strategies. *)
let test_sweep_equals_alone () =
  let seed = 47 and trials = 2_000 in
  List.iter
    (fun (n, fr) ->
      let w =
        ok_exn
          (W.make
             ~latency:(W.Topology (Sim.Topology.ring ~n ~radius:1.0))
             ~read_fraction:fr ())
      in
      let cands = O.candidates ~n in
      let alone =
        List.mapi
          (fun i (c : O.candidate) ->
            let seed = seed + (997 * i) in
            (c.O.label, O.evaluate ~trials ~seed ~workload:w c))
          cands
      in
      let points =
        List.filter_map
          (function _, Ok (p, None) -> Some p | _ -> None)
          alone
      in
      let unresilient =
        List.filter_map
          (function
            | _, Ok (p, Some crash) ->
                Some
                  ( p,
                    Printf.sprintf "not %d-resilient: fails crash set %s"
                      w.W.resilience crash )
            | _ -> None)
          alone
      in
      let errors =
        List.filter_map (function l, Error e -> Some (l, e) | _ -> None) alone
      in
      let by_label =
        List.sort (fun (a : O.point) b -> compare a.O.label b.O.label)
      in
      let run pool =
        let r = ok_exn (O.sweep ?pool ~trials ~seed ~workload:w ~n ()) in
        let what =
          Printf.sprintf "n=%d fr=%g jobs=%s" n fr
            (match pool with
            | None -> "seq"
            | Some p -> string_of_int (Exec.Pool.jobs p))
        in
        let swept = r.O.frontier @ List.map fst r.O.dominated in
        check (what ^ ": points") true (by_label swept = by_label points);
        check (what ^ ": witnesses") true (r.O.unresilient = unresilient);
        check (what ^ ": errors") true (r.O.errors = errors)
      in
      run None;
      Exec.Pool.with_pool ~name:"test" ~jobs:2 (fun pool -> run (Some pool)))
    [ (9, 0.5); (9, 0.9); (12, 0.5); (12, 0.9); (15, 0.5); (15, 0.9) ]

(* --- Protocols: a workload's read fraction drives the store mix ------ *)

let test_store_mix_follows_read_fraction () =
  let system = Registry.build_exn "majority(9)" in
  let scenario = List.hd (Protocols.Chaos.standard ~n:9 ~horizon:120.0) in
  let run w =
    fst
      (Protocols.Chaos.run_store_h ~seed:23 ~read_fraction:w.W.read_fraction
         ~read_system:system ~write_system:system ~name:"majority(9)" scenario)
  in
  let writes = run (ok_exn (W.make ~read_fraction:0.0 ())) in
  check "write-only mix completes no reads" true (writes.reads_ok = 0);
  check "write-only mix completes writes" true (writes.writes_ok > 0);
  let reads = run (ok_exn (W.make ~read_fraction:1.0 ())) in
  check "read-only mix completes no writes" true (reads.writes_ok = 0);
  check "read-only mix completes reads" true (reads.reads_ok > 0);
  let mixed = run (ok_exn (W.make ~read_fraction:0.7 ())) in
  check "mixed run completes both" true
    (mixed.reads_ok > 0 && mixed.writes_ok > 0);
  check_int "no stale reads" 0 mixed.stale_reads

let () =
  Alcotest.run "optimizer"
    [
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "hetero and p_of" `Quick
            test_workload_hetero_and_p_of;
        ] );
      ( "registry",
        [
          Alcotest.test_case "instantiations build at exact n" `Quick
            test_instantiations_build_at_exact_n;
          Alcotest.test_case "instantiation membership" `Quick
            test_instantiations_membership;
        ] );
      ( "thresh",
        [
          Alcotest.test_case "structure" `Quick test_thresh_structure;
          Alcotest.test_case "hetero dp = enumeration" `Quick
            test_thresh_hetero_dp_matches_enumeration;
        ] );
      ( "load",
        [
          Alcotest.test_case "mixed LP = plain LP (symmetric)" `Quick
            test_mixed_lp_equals_plain_lp_when_symmetric;
          Alcotest.test_case "thresh closed form = mixed LP" `Quick
            test_thresh_analytic_equals_mixed_lp;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "evaluate majority(15)" `Quick
            test_evaluate_majority;
          Alcotest.test_case "hqs(4-4-4) past the cap: empirical" `Quick
            (test_evaluate_past_cap [ "hqs(4-4-4)" ]);
          Alcotest.test_case "walls and grids past the cap: empirical" `Quick
            (test_evaluate_past_cap
               [ "cwlog(64)"; "grid-rw(8x8)"; "grid-rw(16x4)" ]);
          QCheck_alcotest.to_alcotest frontier_sound_and_complete;
          Alcotest.test_case "frontier = brute force on fixture" `Quick
            test_frontier_matches_brute_force_fixture;
          Alcotest.test_case "jobs 1/2/4 bit-identical" `Quick
            test_sweep_jobs_deterministic;
          Alcotest.test_case "sweep = candidates evaluated alone" `Quick
            test_sweep_equals_alone;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "store mix follows read_fraction" `Quick
            test_store_mix_follows_read_fraction;
        ] );
    ]
