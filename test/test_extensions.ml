(* Tests for the extension layers: coterie composition (join),
   non-domination, and heterogeneous crash probabilities. *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Coterie = Quorum.Coterie
module Rng = Quorum.Rng

(* Neilsen & Mizuno's coterie join and its iterated form, on explicit
   quorum lists: the oracle that shows HQS is majority-of-majorities.
   [join ~at] replaces outer element [at] by an inner coterie: quorums
   avoiding it survive, quorums through it take any inner quorum in its
   place; the outer ids above [at] shift down and the inner ones follow
   at [n1 - 1].  [compose] replaces every outer element [e] by the
   coterie [inner_of e], the inner universes laid out in outer-element
   order. *)
module Compose = struct
  let join ~at ~n1 outer ~n2 inner =
    let n = n1 - 1 + n2 in
    let outer_id e = if e < at then e else e - 1 in
    let inner_id e = n1 - 1 + e in
    let quorums =
      List.concat_map
        (fun q ->
          let kept =
            Bitset.fold
              (fun e acc -> if e = at then acc else outer_id e :: acc)
              q []
          in
          if not (Bitset.mem q at) then [ Bitset.of_list n kept ]
          else
            List.map
              (fun iq ->
                Bitset.of_list n (kept @ List.map inner_id (Bitset.to_list iq)))
              inner)
        outer
    in
    (n, quorums)

  let compose ~n1 outer inner_of =
    let inners = Array.init n1 inner_of in
    let offsets = Array.make n1 0 in
    let total = ref 0 in
    Array.iteri
      (fun e (n2, _) ->
        offsets.(e) <- !total;
        total := !total + n2)
      inners;
    let n = !total in
    let inner_quorums_of e =
      List.map
        (fun q -> List.map (fun i -> offsets.(e) + i) (Bitset.to_list q))
        (snd inners.(e))
    in
    let quorums =
      List.concat_map
        (fun q ->
          Bitset.to_list q
          |> List.map inner_quorums_of
          |> Quorum.Combinat.product
          |> List.map (fun parts -> Bitset.of_list n (List.concat parts)))
        outer
    in
    (n, quorums)

  let compose_uniform ~n1 outer ~n2 inner =
    compose ~n1 outer (fun _ -> (n2, inner))
end

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let maj3 = List.map (Bitset.of_list 3) [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]

(* --- Non-domination -------------------------------------------------- *)

let nd_of_system (s : System.t) =
  Coterie.is_non_dominated ~n:s.System.n (System.avail_mask_exn s)

let test_nd_classics () =
  check "majority(7) ND" true (nd_of_system (Systems.Majority.make 7));
  check "tie-broken majority(8) ND" true (nd_of_system (Systems.Majority.make 8));
  check "plain majority(8) dominated" false
    (nd_of_system (Systems.Majority.make_plain 8));
  check "singleton ND" true (nd_of_system (Systems.Singleton.make 4));
  check "y(10) ND (no-draw theorem)" true
    (nd_of_system (Systems.Y_system.system ~rows:4 ()));
  check "htriang(10) ND" true
    (nd_of_system (Core.Htriang.system (Core.Htriang.standard ~rows:4 ())));
  check "cwlog(8) ND" true (nd_of_system (Systems.Cwlog.system ~n:8 ()));
  (* flat T-grid with a wide top row is dominated (the wall needs width
     1 on top for non-domination). *)
  check "flat t-grid 3x3 dominated" false
    (nd_of_system (Systems.Grid.t_grid ~rows:3 ~cols:3 ()))

(* ND is equivalent to F(1/2) = 1/2 for monotone systems; spot-check
   both directions. *)
let test_nd_vs_half () =
  List.iter
    (fun spec ->
      let s = Core.Registry.build_exn spec in
      let nd = nd_of_system s in
      let fp_half = Analysis.Failure.exact s ~p:0.5 in
      check
        (spec ^ ": ND iff F(1/2)=1/2")
        nd
        (abs_float (fp_half -. 0.5) < 1e-12))
    [
      "majority(9)"; "majority-plain(8)"; "hqs(3-3)"; "cwlog(10)";
      "triangle(10)"; "htriang(15)"; "y(15)"; "grid-rw(3x3)"; "tgrid(3x3)";
      "htgrid(3x3)";
    ]

(* --- Composition ------------------------------------------------------ *)

let test_join_basic () =
  let n, joined = Compose.join ~at:0 ~n1:3 maj3 ~n2:3 maj3 in
  check_int "universe 3-1+3" 5 n;
  check "joined intersects" true (Coterie.all_intersect joined);
  let minimal = Coterie.minimize joined in
  check "joined antichain after minimize" true (Coterie.is_antichain minimal)

let test_join_preserves_nd () =
  let n, joined = Compose.join ~at:1 ~n1:3 maj3 ~n2:3 maj3 in
  let joined = Coterie.minimize joined in
  let sys = System.of_quorums ~name:"join" ~n joined in
  check "join of NDs is ND" true (nd_of_system sys)

let test_join_with_singleton_is_identity () =
  (* Joining the singleton coterie {x} into position x leaves the outer
     system isomorphic (the inner lone element substitutes for x). *)
  let singleton = [ Bitset.of_list 1 [ 0 ] ] in
  let n, joined = Compose.join ~at:2 ~n1:3 maj3 ~n2:1 singleton in
  check_int "same size" 3 n;
  check_int "same quorum count" 3 (List.length joined);
  check "still a coterie" true (Coterie.is_coterie (Coterie.minimize joined))

let test_compose_equals_hqs () =
  (* majority-of-majorities = HQS(3x3): the composed coterie equals the
     recursive construction's quorum set. *)
  let n, composed = Compose.compose_uniform ~n1:3 maj3 ~n2:3 maj3 in
  check_int "nine leaves" 9 n;
  let hqs = System.quorums_exn (Systems.Hqs.system ~branching:[ 3; 3 ] ()) in
  let sort qs = List.sort Bitset.compare qs in
  let equal_sets a b =
    List.length a = List.length b && List.for_all2 Bitset.equal a b
  in
  check "compose = HQS(3x3)" true
    (equal_sets (sort (Coterie.minimize composed)) (sort hqs))

let test_compose_mixed () =
  (* Replace only element 0 of a majority-of-3 by a 4-process tie-broken
     majority; others stay singletons. *)
  let inner e =
    if e = 0 then
      (4, System.quorums_exn (Systems.Majority.make 4))
    else (1, [ Bitset.of_list 1 [ 0 ] ])
  in
  let n, composed = Compose.compose ~n1:3 maj3 inner in
  check_int "4+1+1" 6 n;
  check "mixed compose intersects" true
    (Coterie.all_intersect (Coterie.minimize composed))

let compose_nd_random =
  QCheck.Test.make ~name:"join of ND majorities stays ND" ~count:20
    QCheck.(pair (int_bound 2) (int_bound 2))
    (fun (at, _) ->
      let n, joined = Compose.join ~at ~n1:3 maj3 ~n2:3 maj3 in
      let sys = System.of_quorums ~name:"j" ~n (Coterie.minimize joined) in
      nd_of_system sys)

(* --- Heterogeneous failure probabilities ----------------------------- *)

let uniform_matches spec =
  let s = Core.Registry.build_exn spec in
  List.iter
    (fun p ->
      check_float
        (spec ^ ": hetero = homo at uniform p")
        (Analysis.Failure.exact s ~p)
        (Analysis.Failure.exact_hetero s ~p_of:(fun _ -> p)))
    [ 0.1; 0.35 ]

let test_hetero_uniform_consistency () =
  List.iter uniform_matches
    [ "majority(9)"; "htriang(10)"; "cwlog(10)"; "grid-rw(3x3)"; "y(10)" ]

(* Closed-form hetero recursions vs generic enumeration, on random
   probability vectors. *)
let random_ps n seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> 0.05 +. (0.5 *. Rng.float rng))

let test_hetero_closed_forms () =
  (* wall *)
  let widths = [| 1; 2; 3; 2 |] in
  let wall = Systems.Wall.system widths in
  let ps = random_ps wall.System.n 1 in
  check_float "wall hetero closed = enum"
    (Analysis.Failure.exact_hetero wall ~p_of:(fun i -> ps.(i)))
    (Systems.Wall.failure_probability_hetero ~widths ~p_of:(fun i -> ps.(i)));
  (* grid *)
  let ps = random_ps 12 2 in
  List.iter
    (fun mode ->
      let g = Systems.Grid.system ~rows:3 ~cols:4 mode in
      check_float "grid hetero closed = enum"
        (Analysis.Failure.exact_hetero g ~p_of:(fun i -> ps.(i)))
        (Systems.Grid.failure_probability_hetero ~rows:3 ~cols:4 mode
           ~p_of:(fun i -> ps.(i))))
    [ Systems.Grid.Read; Systems.Grid.Write; Systems.Grid.Read_write ];
  (* hqs *)
  let ps = random_ps 9 3 in
  check_float "hqs hetero closed = enum"
    (Analysis.Failure.exact_hetero
       (Systems.Hqs.system ~branching:[ 3; 3 ] ())
       ~p_of:(fun i -> ps.(i)))
    (Systems.Hqs.failure_probability_hetero ~branching:[ 3; 3 ]
       ~p_of:(fun i -> ps.(i)));
  (* tree *)
  let ps = random_ps 7 4 in
  check_float "tree hetero closed = enum"
    (Analysis.Failure.exact_hetero
       (Systems.Tree_quorum.system ~height:3 ())
       ~p_of:(fun i -> ps.(i)))
    (Systems.Tree_quorum.failure_probability_hetero ~height:3
       ~p_of:(fun i -> ps.(i)));
  (* voting *)
  let votes = [| 2; 1; 1; 1; 3 |] in
  let ps = random_ps 5 5 in
  check_float "voting hetero closed = enum"
    (Analysis.Failure.exact_hetero
       (Systems.Weighted_voting.system ~votes ())
       ~p_of:(fun i -> ps.(i)))
    (Systems.Weighted_voting.failure_probability_hetero ~votes
       ~p_of:(fun i -> ps.(i)));
  (* hgrid (hierarchical, non-uniform blocks) *)
  let g = Core.Hgrid.auto_2x2 ~rows:3 ~cols:3 () in
  let ps = random_ps 9 6 in
  List.iter
    (fun mode ->
      let sys =
        match mode with
        | Core.Hgrid.Read -> Core.Hgrid.read_system g
        | Core.Hgrid.Write -> Core.Hgrid.write_system g
        | Core.Hgrid.Read_write -> Core.Hgrid.rw_system g
      in
      check_float "hgrid hetero closed = enum"
        (Analysis.Failure.exact_hetero sys ~p_of:(fun i -> ps.(i)))
        (Core.Hgrid.failure_probability_hetero g mode ~p_of:(fun i -> ps.(i))))
    [ Core.Hgrid.Read; Core.Hgrid.Write; Core.Hgrid.Read_write ];
  (* htriang *)
  let t = Core.Htriang.standard ~rows:5 () in
  let ps = random_ps 15 7 in
  check_float "htriang hetero closed = enum"
    (Analysis.Failure.exact_hetero (Core.Htriang.system t)
       ~p_of:(fun i -> ps.(i)))
    (Core.Htriang.failure_probability_hetero t ~p_of:(fun i -> ps.(i)))

let hetero_qcheck =
  QCheck.Test.make ~name:"htriang hetero closed = enum (random ps)" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let t = Core.Htriang.standard ~rows:4 () in
      let ps = random_ps 10 seed in
      let closed =
        Core.Htriang.failure_probability_hetero t ~p_of:(fun i -> ps.(i))
      in
      let enum =
        Analysis.Failure.exact_hetero (Core.Htriang.system t)
          ~p_of:(fun i -> ps.(i))
      in
      abs_float (closed -. enum) < 1e-9)

let test_hetero_monte_carlo () =
  let s = Core.Registry.build_exn "htriang(15)" in
  let ps = random_ps 15 11 in
  let exact = Analysis.Failure.exact_hetero s ~p_of:(fun i -> ps.(i)) in
  let est =
    Analysis.Failure.monte_carlo_hetero ~trials:120_000 (Rng.create 12) s
      ~p_of:(fun i -> ps.(i))
  in
  check "hetero MC brackets exact" true
    (abs_float (est.mean -. exact) <= est.half_width +. 0.004)

(* Placement sensitivity: the h-triang cares where the flaky processes
   sit — bad nodes in the top rows hurt more than in the bottom row. *)
let test_hetero_placement () =
  let t = Core.Htriang.standard ~rows:5 () in
  let flaky placement i = if List.mem i placement then 0.4 else 0.05 in
  let top = Core.Htriang.failure_probability_hetero t ~p_of:(flaky [ 0; 1; 2 ]) in
  let bottom =
    Core.Htriang.failure_probability_hetero t ~p_of:(flaky [ 10; 12; 14 ])
  in
  check "top placement worse than bottom" true (top > bottom)

(* --- Critical thresholds --------------------------------------------- *)

let test_bisect () =
  let p_star =
    Analysis.Threshold.bisect ~supercritical:(fun p -> p < 0.37) ~low:0.01
      ~high:0.5 ()
  in
  Alcotest.(check (float 1e-6)) "bisect locates boundary" 0.37 p_star;
  Alcotest.(check (float 1e-9)) "low not supercritical -> low" 0.01
    (Analysis.Threshold.bisect ~supercritical:(fun _ -> false) ~low:0.01
       ~high:0.5 ())

let test_threshold_hqs_half () =
  (* The 3-ary majority level map a -> 3a^2(1-a) + a^3 has its unstable
     fixed point at 1/2: HQS's threshold is optimal. *)
  let family level ~p =
    Systems.Hqs.failure_probability
      ~branching:(List.init level (fun _ -> 3))
      ~p
  in
  let p_star = Analysis.Threshold.critical_p ~family ~levels:(6, 12) () in
  check "HQS threshold ~ 1/2" true (p_star > 0.49 && p_star <= 0.5)

let test_threshold_hgrid_below_half () =
  (* Kumar & Cheung: the h-grid's p* is strictly below 1/2. *)
  let family level ~p =
    Core.Hgrid.failure_probability
      (Core.Hgrid.of_dims (List.init level (fun _ -> (2, 2))))
      Core.Hgrid.Read_write ~p
  in
  let p_star = Analysis.Threshold.critical_p ~family ~levels:(5, 10) () in
  check "h-grid p* in (0.3, 0.45)" true (p_star > 0.3 && p_star < 0.45)

let test_improves_underflow () =
  (* Both sizes underflow to 0: counts as supercritical. *)
  let family level ~p = p ** float_of_int (100 * level) in
  check "underflow improves" true
    (Analysis.Threshold.improves ~family ~levels:(5, 10) 0.1)

(* --- Topology / placement -------------------------------------------- *)

let test_topology_geometry () =
  let line = Sim.Topology.line ~n:4 ~spacing:2.0 in
  Alcotest.(check (float 1e-9)) "line distance" 6.0
    (Sim.Topology.distance line 0 3);
  let ring = Sim.Topology.ring ~n:4 ~radius:1.0 in
  Alcotest.(check (float 1e-9)) "ring diameter" 2.0
    (Sim.Topology.distance ring 0 2);
  Alcotest.(check (float 1e-9)) "symmetry"
    (Sim.Topology.distance ring 1 3)
    (Sim.Topology.distance ring 3 1)

let test_topology_rtt () =
  let line = Sim.Topology.line ~n:5 ~spacing:1.0 in
  let q = Bitset.of_list 5 [ 1; 4 ] in
  Alcotest.(check (float 1e-9)) "rtt = 2 x farthest" 8.0
    (Sim.Topology.rtt line ~from:0 q)

let test_placement_best_beats_strategy () =
  let rng = Rng.create 7 in
  let topology =
    Sim.Topology.clusters rng ~sizes:[ 5; 5; 5 ] ~spread:1.0 ~separation:8.0
  in
  List.iter
    (fun spec ->
      let s = Core.Registry.build_exn spec in
      let best = Analysis.Placement.mean_best_rtt s topology in
      let strat =
        Analysis.Placement.mean_strategy_rtt ~trials:600 (Rng.create 8) s
          topology
      in
      check (spec ^ ": best <= strategy") true (best <= strat +. 1e-9))
    [ "majority(15)"; "htriang(15)"; "cwlog(14)" ]

let test_latency_select_valid () =
  let s = Core.Registry.build_exn "htriang(15)" in
  let topology = Sim.Topology.ring ~n:15 ~radius:5.0 in
  let rng = Rng.create 9 in
  let quorums = System.quorums_exn s in
  for _ = 1 to 50 do
    let live = Bitset.random_subset rng ~n:15 ~p:0.8 in
    match Analysis.Placement.latency_select s topology ~from:0 rng ~live with
    | None -> check "none implies unavail" false (s.System.avail live)
    | Some q ->
        check "within live" true (Bitset.subset q live);
        check "a real quorum" true
          (List.exists (fun m -> Bitset.equal m q) quorums)
  done

let test_geo_network_delay () =
  let line = Sim.Topology.line ~n:3 ~spacing:5.0 in
  let net = Sim.Topology.network ~base_latency:1.0 ~jitter:0.0 line in
  let rng = Rng.create 10 in
  let latency = Float.Array.make 1 nan in
  if Sim.Network.draw net rng ~src:0 ~dst:2 latency then
    Alcotest.(check (float 1e-9))
      "base + distance" 11.0
      (Float.Array.get latency 0)
  else Alcotest.fail "dropped";
  if Sim.Network.draw net rng ~src:1 ~dst:1 latency then
    Alcotest.(check (float 1e-9)) "self" 1.0 (Float.Array.get latency 0)
  else Alcotest.fail "dropped"

let () =
  Alcotest.run "extensions"
    [
      ( "non-domination",
        [
          Alcotest.test_case "classics" `Quick test_nd_classics;
          Alcotest.test_case "ND iff F(1/2)=1/2" `Quick test_nd_vs_half;
        ] );
      ( "composition",
        [
          Alcotest.test_case "join basic" `Quick test_join_basic;
          Alcotest.test_case "join preserves ND" `Quick test_join_preserves_nd;
          Alcotest.test_case "join singleton identity" `Quick
            test_join_with_singleton_is_identity;
          Alcotest.test_case "compose = HQS" `Quick test_compose_equals_hqs;
          Alcotest.test_case "mixed compose" `Quick test_compose_mixed;
          QCheck_alcotest.to_alcotest compose_nd_random;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "HQS = 1/2" `Quick test_threshold_hqs_half;
          Alcotest.test_case "h-grid < 1/2" `Quick
            test_threshold_hgrid_below_half;
          Alcotest.test_case "underflow" `Quick test_improves_underflow;
        ] );
      ( "placement",
        [
          Alcotest.test_case "geometry" `Quick test_topology_geometry;
          Alcotest.test_case "rtt" `Quick test_topology_rtt;
          Alcotest.test_case "best beats strategy" `Quick
            test_placement_best_beats_strategy;
          Alcotest.test_case "latency select" `Quick test_latency_select_valid;
          Alcotest.test_case "geo network" `Quick test_geo_network_delay;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "uniform consistency" `Quick
            test_hetero_uniform_consistency;
          Alcotest.test_case "closed forms" `Quick test_hetero_closed_forms;
          QCheck_alcotest.to_alcotest hetero_qcheck;
          Alcotest.test_case "monte carlo" `Quick test_hetero_monte_carlo;
          Alcotest.test_case "placement sensitivity" `Quick
            test_hetero_placement;
        ] );
    ]
