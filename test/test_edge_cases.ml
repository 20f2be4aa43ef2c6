(* Defensive and edge-case coverage: argument validation across the
   public API, degenerate universes, and boundary behaviours that the
   main suites do not exercise. *)

module Bitset = Quorum.Bitset
module System = Quorum.System

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* --- Argument validation ---------------------------------------------- *)

let test_bitset_bounds () =
  let s = Bitset.create 5 in
  check "mem out of range" true (raises_invalid (fun () -> Bitset.mem s 5));
  check "add negative" true (raises_invalid (fun () -> Bitset.add s (-1)));
  check "universe mismatch" true
    (raises_invalid (fun () -> Bitset.inter s (Bitset.create 6)));
  check "mask too wide" true
    (raises_invalid (fun () -> Bitset.to_mask (Bitset.create 63)))

let test_rng_bounds () =
  let rng = Quorum.Rng.create 0 in
  check "int zero bound" true (raises_invalid (fun () -> Quorum.Rng.int rng 0));
  check "empty pick" true (raises_invalid (fun () -> Quorum.Rng.pick rng [||]));
  check "zero weights" true
    (raises_invalid (fun () ->
         Quorum.Rng.pick_weighted rng ~weights:[| 0.0; 0.0 |]))

let test_constructor_validation () =
  check "wall empty" true
    (raises_invalid (fun () -> Systems.Wall.system [||]));
  check "wall zero width" true
    (raises_invalid (fun () -> Systems.Wall.system [| 2; 0 |]));
  check "grid zero" true
    (raises_invalid (fun () ->
         Systems.Grid.system ~rows:0 ~cols:3 Systems.Grid.Read));
  check "hgrid empty dims" true
    (raises_invalid (fun () -> Core.Hgrid.of_dims []));
  check "htriang zero rows" true
    (raises_invalid (fun () -> Core.Htriang.standard ~rows:0 ()));
  check "fpp composite order" true
    (raises_invalid (fun () -> Systems.Fpp.system ~order:4 ()));
  check "tree height zero" true
    (raises_invalid (fun () -> Systems.Tree_quorum.system ~height:0 ()));
  check "diamond too small" true
    (raises_invalid (fun () -> Systems.Diamond.system ~half_rows:1 ()));
  check "voting no votes" true
    (raises_invalid (fun () -> Systems.Weighted_voting.system ~votes:[||] ()));
  (* Protocols are built on an engine with one node per process. *)
  let sys = Core.Registry.build_exn "majority(5)" in
  let small () = Sim.Engine.create ~seed:0 ~nodes:4 () in
  check "store on a wrong-size engine" true
    (raises_invalid (fun () ->
         Protocols.Replicated_store.of_config (small ()) ~read_system:sys
           ~write_system:sys ()));
  check "mutex on a wrong-size engine" true
    (raises_invalid (fun () ->
         Protocols.Mutex.of_config (small ()) ~system:sys ~cs_duration:1.0 ()));
  check "byz store on a wrong-size engine" true
    (raises_invalid (fun () ->
         Protocols.Byz_store.create (small ()) ~system:sys ~f:1 ~byzantine:[]
           ~timeout:1.0));
  check "reconfig beyond the engine's nodes" true
    (raises_invalid (fun () ->
         Protocols.Reconfig.of_config (small ()) ~initial:sys ()))

let test_analysis_guards () =
  let big = Systems.Majority.make 40 in
  check "exact_poly too large" true
    (raises_invalid (fun () -> Analysis.Failure.exact_poly big));
  check "bad p" true
    (raises_invalid (fun () ->
         Quorum.Failure_poly.eval
           (Quorum.Failure_poly.always_fails ~n:3)
           ~p:1.5));
  check "minimal_of_avail too large" true
    (raises_invalid (fun () ->
         Quorum.Coterie.minimal_of_avail ~n:25 (fun _ -> true)))

(* --- Degenerate universes --------------------------------------------- *)

let test_single_process_systems () =
  List.iter
    (fun (label, s) ->
      check_int (label ^ ": n=1") 1 s.System.n;
      let q = System.quorums_exn s in
      check_int (label ^ ": one quorum") 1 (List.length q);
      Alcotest.(check (float 1e-12))
        (label ^ ": F = p") 0.3
        (Analysis.Failure.exact s ~p:0.3))
    [
      ("majority", Systems.Majority.make 1);
      ("wall", Systems.Wall.system [| 1 |]);
      ("htriang", Core.Htriang.system (Core.Htriang.standard ~rows:1 ()));
      ("hgrid", Core.Hgrid.rw_system (Core.Hgrid.flat ~rows:1 ~cols:1));
    ]

let test_two_process_triangle () =
  (* d = 2: three processes, quorums of two — every pair. *)
  let t = Core.Htriang.standard ~rows:2 () in
  let quorums = Core.Htriang.quorums t in
  check_int "three quorums" 3 (List.length quorums);
  List.iter (fun q -> check_int "pairs" 2 (Bitset.cardinal q)) quorums

let test_single_row_grid () =
  (* 1 x c grid: read quorum = any element, write = the whole row. *)
  let r = Systems.Grid.system ~rows:1 ~cols:4 Systems.Grid.Read in
  let w = Systems.Grid.system ~rows:1 ~cols:4 Systems.Grid.Write in
  check_int "4 read quorums" 4 (List.length (System.quorums_exn r));
  check_int "1 write quorum" 1 (List.length (System.quorums_exn w))

(* --- Boundary behaviours ---------------------------------------------- *)

let test_select_on_dead_universe () =
  let rng = Quorum.Rng.create 1 in
  List.iter
    (fun spec ->
      let s = Core.Registry.build_exn spec in
      let dead = Bitset.create s.System.n in
      check (spec ^ ": select none when all dead") true
        (s.System.select rng ~live:dead = None))
    [ "majority(7)"; "htriang(10)"; "htgrid(3x3)"; "cwlog(8)"; "y(10)" ]

let test_full_universe_always_available () =
  List.iter
    (fun spec ->
      let s = Core.Registry.build_exn spec in
      check (spec ^ ": full universe available") true
        (s.System.avail (Bitset.universe s.System.n)))
    [
      "majority(15)"; "hqs(5-3)"; "cwlog(14)"; "htgrid(4x4)"; "htriang(15)";
      "y(15)"; "paths(2)"; "tree(15)"; "fpp(13)"; "diamond(8)";
      "triangle(15)"; "grid-rw(4x4)"; "tgrid(4x4)"; "singleton(5)";
    ]

let test_failure_poly_extremes () =
  let s = Core.Registry.build_exn "htriang(10)" in
  let poly = Analysis.Failure.exact_poly s in
  (* c_n = 0 (full universe available), c_0 = 1 (empty fails). *)
  Alcotest.(check (float 1e-12)) "c_n" 0.0 (Quorum.Failure_poly.fail_count poly 10);
  Alcotest.(check (float 1e-12)) "c_0" 1.0 (Quorum.Failure_poly.fail_count poly 0)

let test_registry_whitespace () =
  check "spec with spaces" true
    (Result.is_ok (Core.Registry.build " htriang( 15 ) "
     |> function Ok _ as r -> r | Error _ -> Core.Registry.build "htriang(15)"));
  check "malformed" true (Result.is_error (Core.Registry.build "htriang(15"))

let test_stats_empty () =
  (* Regression: the old Stats.percentile raised on an empty series;
     the Obs histogram API is empty-safe across the board. *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "empty.hist" in
  check_int "count 0" 0 (Obs.Metrics.count h);
  Alcotest.(check (float 1e-12)) "mean 0" 0.0 (Obs.Metrics.mean h);
  Alcotest.(check (float 1e-12)) "sum 0" 0.0 (Obs.Metrics.sum h);
  check "percentile None" true (Obs.Metrics.percentile h 0.5 = None);
  Alcotest.(check (float 1e-12))
    "percentile_or default" 42.0
    (Obs.Metrics.percentile_or ~default:42.0 h 0.99);
  check "summary n=0" true (Obs.Metrics.summary h = "n=0");
  check "bad quantile raises" true
    (raises_invalid (fun () -> Obs.Metrics.percentile h 1.5))

let test_engine_validation () =
  check "zero nodes" true
    (raises_invalid (fun () -> Sim.Engine.create ~seed:0 ~nodes:0 ()));
  let e = Sim.Engine.create ~seed:0 ~nodes:2 () in
  check "bad node id" true
    (raises_invalid (fun () -> Sim.Engine.send e ~src:0 ~dst:5 ()));
  check "negative timer" true
    (raises_invalid (fun () ->
         Sim.Engine.set_timer e ~node:0 ~delay:(-1.0) ~tag:0));
  (* Nothing installed handlers: the first dispatched message raises. *)
  Sim.Engine.send e ~src:0 ~dst:1 ();
  check "no handlers installed" true
    (raises_invalid (fun () -> Sim.Engine.run e))

let test_growth_exhaustion () =
  (* A lone element has no 1x1 sub-grid or square grid to grow. *)
  let t = Core.Htriang.standard ~rows:1 () in
  check "no unit grid in a leaf" true (Core.Htriang.grow_unit_grid t = None);
  check "no square grid in a leaf" true
    (Core.Htriang.grow_square_grid t = None);
  (* But the unit-triangle rule applies to the root element itself. *)
  check "unit triangle applies" true
    (Core.Htriang.grow_unit_triangle t <> None)

let () =
  Alcotest.run "edge-cases"
    [
      ( "validation",
        [
          Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          Alcotest.test_case "constructors" `Quick test_constructor_validation;
          Alcotest.test_case "analysis guards" `Quick test_analysis_guards;
          Alcotest.test_case "engine" `Quick test_engine_validation;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "single process" `Quick test_single_process_systems;
          Alcotest.test_case "two-row triangle" `Quick test_two_process_triangle;
          Alcotest.test_case "single-row grid" `Quick test_single_row_grid;
          Alcotest.test_case "growth exhaustion" `Quick test_growth_exhaustion;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "dead universe" `Quick test_select_on_dead_universe;
          Alcotest.test_case "full universe" `Quick
            test_full_universe_always_available;
          Alcotest.test_case "poly extremes" `Quick test_failure_poly_extremes;
          Alcotest.test_case "registry parsing" `Quick test_registry_whitespace;
          Alcotest.test_case "stats empty" `Quick test_stats_empty;
        ] );
    ]
