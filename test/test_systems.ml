(* Cross-construction battery for every baseline quorum system, plus
   per-construction unit tests (closed-form failure probabilities
   against exact enumeration, published structural facts). *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Coterie = Quorum.Coterie
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* Systems small enough for full checks.  Each battery entry runs the
   generic properties below. *)
let small_systems () =
  [
    Systems.Majority.make 7;
    Systems.Majority.make 8;
    Systems.Singleton.make 5;
    Systems.Weighted_voting.system ~votes:[| 3; 1; 1; 1; 1 |] ();
    Systems.Grid.system ~rows:3 ~cols:3 Systems.Grid.Read_write;
    Systems.Grid.t_grid ~rows:3 ~cols:3 ();
    Systems.Wall.system [| 1; 2; 3; 2 |];
    Systems.Cwlog.system ~n:14 ();
    Systems.Triangle.system ~rows:4 ();
    Systems.Diamond.system ~half_rows:3 ();
    Systems.Hqs.system ~branching:[ 3; 3 ] ();
    Systems.Tree_quorum.system ~height:3 ();
    Systems.Fpp.system ~order:2 ();
    Systems.Fpp.system ~order:3 ();
    Systems.Y_system.system ~rows:4 ();
    Systems.Paths.system ~d:2 ();
  ]

let enumerable (s : System.t) = Option.is_some s.System.min_quorums

(* Read-only and write-only families are not self-intersecting quorum
   systems: a read quorum must intersect every write quorum and vice
   versa (section 4.1).  Check that cross property here; the battery
   below covers the mutual-exclusion systems. *)
let test_read_write_cross_intersection () =
  List.iter
    (fun (rows, cols) ->
      let reads =
        Quorum.System.quorums_exn
          (Systems.Grid.system ~rows ~cols Systems.Grid.Read)
      in
      let writes =
        Quorum.System.quorums_exn
          (Systems.Grid.system ~rows ~cols Systems.Grid.Write)
      in
      List.iter
        (fun r ->
          List.iter
            (fun w ->
              check "read x write intersect" true (Bitset.intersects r w))
            writes)
        reads)
    [ (2, 4); (4, 2); (3, 3) ]

(* 1. Intersection property and antichain over the explicit coterie. *)
let test_coterie_properties () =
  List.iter
    (fun (s : System.t) ->
      if enumerable s then begin
        let quorums = System.quorums_exn s in
        check (s.name ^ ": nonempty") true (quorums <> []);
        check (s.name ^ ": intersecting") true (Coterie.all_intersect quorums);
        check (s.name ^ ": antichain") true (Coterie.is_antichain quorums)
      end)
    (small_systems ())

(* 2. Every enumerated quorum is available. *)
let test_quorums_available () =
  List.iter
    (fun (s : System.t) ->
      if enumerable s then
        List.iter
          (fun q -> check (s.name ^ ": quorum avail") true (s.avail q))
          (System.quorums_exn s))
    (small_systems ())

(* 3. avail agrees with subset-of-live over all masks (n <= 16), or
   sampled masks otherwise. *)
let test_avail_matches_quorum_list () =
  List.iter
    (fun (s : System.t) ->
      if enumerable s && s.n <= 16 then begin
        let quorums = System.quorums_exn s in
        let avail = System.avail_mask_exn s in
        let scratch = Bitset.create s.n in
        for mask = 0 to (1 lsl s.n) - 1 do
          Bitset.blit_mask scratch mask;
          let expected =
            List.exists (fun q -> Bitset.subset q scratch) quorums
          in
          if expected <> avail mask then
            Alcotest.failf "%s: avail mismatch at mask %d" s.name mask
        done
      end)
    (small_systems ())

(* 4. avail_mask consistent with avail on random subsets. *)
let test_mask_vs_bitset () =
  let rng = Rng.create 99 in
  List.iter
    (fun (s : System.t) ->
      if s.n <= Bitset.bits_per_word then begin
        let mask_avail = System.avail_mask_exn s in
        for _ = 1 to 200 do
          let live = Bitset.random_subset rng ~n:s.n ~p:0.6 in
          if s.avail live <> mask_avail (Bitset.to_mask live) then
            Alcotest.failf "%s: mask/bitset disagree" s.name
        done
      end)
    (small_systems ())

(* 5. Monotonicity: adding a live node never kills availability. *)
let test_monotone () =
  let rng = Rng.create 123 in
  List.iter
    (fun (s : System.t) ->
      for _ = 1 to 100 do
        let live = Bitset.random_subset rng ~n:s.n ~p:0.5 in
        if s.avail live then begin
          let bigger = Bitset.copy live in
          let dead = Bitset.complement live in
          (match Bitset.choose dead with
          | Some e -> Bitset.add bigger e
          | None -> ());
          check (s.name ^ ": monotone") true (s.avail bigger)
        end
      done)
    (small_systems ())

(* 6. Select returns a quorum within live. *)
let test_select_valid () =
  let rng = Rng.create 7 in
  List.iter
    (fun (s : System.t) ->
      for _ = 1 to 100 do
        let live = Bitset.random_subset rng ~n:s.n ~p:0.8 in
        match s.System.select rng ~live with
        | None ->
            check (s.name ^ ": select none implies unavail") false
              (s.avail live)
        | Some q ->
            check (s.name ^ ": quorum in live") true (Bitset.subset q live);
            check (s.name ^ ": selected avail") true (s.avail q)
      done)
    (small_systems ())

(* 7. Failure-probability boundary values. *)
let test_fp_boundaries () =
  List.iter
    (fun (s : System.t) ->
      if s.n <= 20 then begin
        let poly = Analysis.Failure.exact_poly s in
        check_float (s.name ^ ": F(0)=0") 0.0
          (Quorum.Failure_poly.eval poly ~p:0.0);
        check_float (s.name ^ ": F(1)=1") 1.0
          (Quorum.Failure_poly.eval poly ~p:1.0);
        (* monotone in p *)
        let prev = ref 0.0 in
        List.iter
          (fun p ->
            let v = Quorum.Failure_poly.eval poly ~p in
            check (s.name ^ ": monotone in p") true (v >= !prev -. 1e-12);
            prev := v)
          [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.7; 0.9 ]
      end)
    (small_systems ())

(* --- Closed forms vs enumeration ----------------------------------- *)

(* Without the availability counts that most families derive from
   their structure (the same recursions as their closed forms), so
   that the live sets are walked. *)
let enum_fp (s : System.t) p =
  Analysis.Failure.exact { s with System.avail_counts = None } ~p

let test_wall_closed_form () =
  List.iter
    (fun widths ->
      let s = Systems.Wall.system widths in
      List.iter
        (fun p ->
          check_close 1e-9 "wall closed form"
            (enum_fp s p)
            (Systems.Wall.failure_probability ~widths ~p))
        [ 0.1; 0.3; 0.5; 0.8 ])
    [ [| 1; 2; 2 |]; [| 3; 3; 3 |]; [| 2; 1; 4; 2 |]; [| 5 |] ]

let test_grid_closed_form () =
  List.iter
    (fun (rows, cols) ->
      List.iter
        (fun mode ->
          let s = Systems.Grid.system ~rows ~cols mode in
          List.iter
            (fun p ->
              check_close 1e-9 "grid closed form"
                (enum_fp s p)
                (Systems.Grid.failure_probability ~rows ~cols mode ~p))
            [ 0.1; 0.4; 0.6 ])
        [ Systems.Grid.Read; Systems.Grid.Write; Systems.Grid.Read_write ])
    [ (3, 3); (2, 5); (4, 2) ]

let test_hqs_closed_form () =
  List.iter
    (fun branching ->
      let s = Systems.Hqs.system ~branching () in
      List.iter
        (fun p ->
          check_close 1e-9 "hqs closed form"
            (enum_fp s p)
            (Systems.Hqs.failure_probability ~branching ~p))
        [ 0.1; 0.3; 0.5 ])
    [ [ 3; 3 ]; [ 5; 3 ]; [ 3; 5 ] ]

let test_tree_closed_form () =
  List.iter
    (fun height ->
      let s = Systems.Tree_quorum.system ~height () in
      List.iter
        (fun p ->
          check_close 1e-9 "tree closed form"
            (enum_fp s p)
            (Systems.Tree_quorum.failure_probability ~height ~p))
        [ 0.1; 0.3; 0.5 ])
    [ 2; 3; 4 ]

let test_majority_closed_form () =
  List.iter
    (fun n ->
      let s = Systems.Majority.make n in
      List.iter
        (fun p ->
          check_close 1e-9 "majority closed form"
            (enum_fp s p)
            (Systems.Majority.failure_probability ~n ~p))
        [ 0.1; 0.3; 0.5 ])
    [ 5; 8; 15 ]

let test_voting_closed_form () =
  let votes = [| 2; 1; 1; 3; 1 |] in
  let s = Systems.Weighted_voting.system ~votes () in
  List.iter
    (fun p ->
      check_close 1e-9 "voting closed form"
        (enum_fp s p)
        (Systems.Weighted_voting.failure_probability ~votes ~p))
    [ 0.15; 0.5; 0.75 ]

(* --- Non-domination: F(1/2) = 1/2 ---------------------------------- *)

let test_non_dominated_half () =
  let nd =
    [
      Systems.Majority.make 7;
      Systems.Majority.make 8;
      (* tie-broken *)
      Systems.Hqs.system ~branching:[ 3; 3 ] ();
      Systems.Cwlog.system ~n:14 ();
      Systems.Triangle.system ~rows:4 ();
      Systems.Diamond.system ~half_rows:3 ();
      Systems.Y_system.system ~rows:4 ();
      Systems.Y_system.system ~rows:5 ();
    ]
  in
  List.iter
    (fun (s : System.t) ->
      check_close 1e-9 (s.name ^ ": F(1/2)") 0.5 (enum_fp s 0.5))
    nd

(* The plain even majority is dominated: F(1/2) > 1/2. *)
let test_plain_even_majority_dominated () =
  let s = Systems.Majority.make_plain 8 in
  check "plain majority dominated" true (enum_fp s 0.5 > 0.5)

(* --- Published / structural facts ----------------------------------- *)

let test_cwlog_shape () =
  Alcotest.(check (array int))
    "cwlog(14) widths" [| 1; 2; 2; 3; 3; 3 |]
    (Systems.Cwlog.widths_for 14);
  Alcotest.(check (array int))
    "cwlog(29) widths"
    [| 1; 2; 2; 3; 3; 3; 3; 4; 4; 4 |]
    (Systems.Cwlog.widths_for 29);
  let stats = Analysis.Metrics.of_system (Systems.Cwlog.system ~n:14 ()) in
  check_int "cwlog(14) min quorum" 3 stats.min_size;
  check_int "cwlog(14) max quorum" 6 stats.max_size

let test_fpp_shape () =
  let s = Systems.Fpp.system ~order:3 () in
  check_int "fpp order 3 universe" 13 s.System.n;
  let quorums = System.quorums_exn s in
  check_int "13 lines" 13 (List.length quorums);
  List.iter
    (fun q -> check_int "line size q+1" 4 (Bitset.cardinal q))
    quorums;
  (* any two lines meet in exactly one point *)
  let rec pairs = function
    | [] -> ()
    | q :: rest ->
        List.iter
          (fun r ->
            check_int "lines meet in one point" 1
              (Bitset.cardinal (Bitset.inter q r)))
          rest;
        pairs rest
  in
  pairs quorums

let test_wall_quorum_count () =
  let listed widths =
    float_of_int (List.length (System.quorums_exn (Systems.Wall.system widths)))
  in
  check "wall quorum count" true
    (Systems.Wall.quorum_count [| 1; 2; 3 |] = listed [| 1; 2; 3 |]);
  check "triangle(4 rows) count" true
    (Systems.Wall.quorum_count [| 1; 2; 3; 4 |]
    = float_of_int ((2 * 3 * 4) + (3 * 4) + 4 + 1));
  for n = 1 to 29 do
    let widths = Systems.Cwlog.widths_for n in
    check (Printf.sprintf "cwlog(%d) count" n) true
      (Systems.Wall.quorum_count widths = listed widths)
  done;
  check "cwlog(29): Table 4's 38,869" true
    (Systems.Wall.quorum_count (Systems.Cwlog.widths_for 29) = 38_869.0)

(* The count comes from the branching alone; every HQS tree an
   optimizer sweep instantiates up to 30 processes lists exactly that
   many quorums, all under the enumeration cap. *)
let test_hqs_quorum_count () =
  let checked = ref 0 in
  for n = 9 to 30 do
    List.iter
      (fun ((e : Core.Registry.entry), specs) ->
        if e.Core.Registry.family = "hqs" then
          List.iter
            (fun spec ->
              let branching =
                String.sub spec 4 (String.length spec - 5)
                |> String.split_on_char '-' |> List.map int_of_string
              in
              let listed =
                List.length
                  (System.quorums_exn (Core.Registry.build_exn spec))
              in
              check (spec ^ " count") true
                (Systems.Hqs.quorum_count ~branching = float_of_int listed);
              check (spec ^ " under the cap") true
                (listed <= Systems.Thresh.enumeration_cap);
              incr checked)
            specs)
      (Core.Registry.instantiations ~n)
  done;
  check_int "hqs specs up to n = 30" 26 !checked;
  check "hqs(4-4-4) count" true
    (Systems.Hqs.quorum_count ~branching:[ 4; 4; 4 ] = 67_108_864.0)

let test_triangle_sizes () =
  let s = Systems.Triangle.system ~rows:5 () in
  let stats = Analysis.Metrics.of_system s in
  check_int "triangle min = rows" 5 stats.min_size;
  check_int "rows_for" 5 (Systems.Triangle.rows_for 15);
  check_int "rows_for non-triangular" 5 (Systems.Triangle.rows_for 11)

let test_paths_structure () =
  check_int "paths universe" 12 (Systems.Paths.universe_size ~d:2);
  let s = Systems.Paths.system ~d:2 () in
  (* a full row of horizontal edges alone is not enough: the dual
     crossing needs vertical freedom *)
  let row = Bitset.create 12 in
  List.iter
    (fun c -> Bitset.add row (Systems.Paths.horizontal ~d:2 ~row:1 ~col:c))
    [ 0; 1 ];
  check "LR row alone insufficient" false (s.System.avail row);
  check "full universe available" true
    (s.System.avail (Bitset.universe 12))

let test_y_structure () =
  let s = Systems.Y_system.system ~rows:4 () in
  check_int "y universe" 10 s.System.n;
  (* left edge path apex->bottom-left corner touches all three sides *)
  let q = Bitset.create 10 in
  List.iter
    (fun r -> Bitset.add q (Systems.Y_system.element ~row:r ~col:0))
    [ 0; 1; 2; 3 ];
  check "left edge is a quorum" true (s.System.avail q);
  (* bottom row alone touches left, right, bottom *)
  let b = Bitset.create 10 in
  List.iter
    (fun c -> Bitset.add b (Systems.Y_system.element ~row:3 ~col:c))
    [ 0; 1; 2; 3 ];
  check "bottom row is a quorum" true (s.System.avail b);
  (* two disconnected side stubs are not *)
  let bad = Bitset.create 10 in
  Bitset.add bad (Systems.Y_system.element ~row:3 ~col:0);
  Bitset.add bad (Systems.Y_system.element ~row:3 ~col:3);
  Bitset.add bad (Systems.Y_system.element ~row:0 ~col:0);
  check "disconnected set is not" false (s.System.avail bad)

let test_tree_quorum_shapes () =
  let s = Systems.Tree_quorum.system ~height:3 () in
  let stats = Analysis.Metrics.of_system s in
  check_int "tree(7) min (root path)" 3 stats.min_size;
  check_int "tree(7) max (leaves)" 4 stats.max_size

let test_majority_sizes () =
  check_int "majority(15) quorum" 8 (Systems.Majority.quorum_size 15);
  check_int "majority(28) quorum" 14 (Systems.Majority.quorum_size 28);
  let stats = Analysis.Metrics.of_system (Systems.Majority.make 7) in
  check_int "majority(7) size" 4 stats.min_size;
  check_int "all same size" 4 stats.max_size

(* Singleton failure probability is exactly p. *)
let test_singleton_fp () =
  let s = Systems.Singleton.make 4 in
  List.iter
    (fun p -> check_close 1e-9 "singleton F=p" p (enum_fp s p))
    [ 0.0; 0.25; 0.5; 0.9 ]

let () =
  Alcotest.run "systems"
    [
      ( "battery",
        [
          Alcotest.test_case "coterie properties" `Quick test_coterie_properties;
          Alcotest.test_case "read x write cross" `Quick
            test_read_write_cross_intersection;
          Alcotest.test_case "quorums available" `Quick test_quorums_available;
          Alcotest.test_case "avail = quorum list" `Slow
            test_avail_matches_quorum_list;
          Alcotest.test_case "mask = bitset" `Quick test_mask_vs_bitset;
          Alcotest.test_case "monotone" `Quick test_monotone;
          Alcotest.test_case "select valid" `Quick test_select_valid;
          Alcotest.test_case "fp boundaries" `Slow test_fp_boundaries;
        ] );
      ( "closed forms",
        [
          Alcotest.test_case "wall" `Quick test_wall_closed_form;
          Alcotest.test_case "grid" `Quick test_grid_closed_form;
          Alcotest.test_case "hqs" `Quick test_hqs_closed_form;
          Alcotest.test_case "tree" `Quick test_tree_closed_form;
          Alcotest.test_case "majority" `Quick test_majority_closed_form;
          Alcotest.test_case "voting" `Quick test_voting_closed_form;
        ] );
      ( "non-domination",
        [
          Alcotest.test_case "F(1/2) = 1/2" `Quick test_non_dominated_half;
          Alcotest.test_case "plain even majority" `Quick
            test_plain_even_majority_dominated;
        ] );
      ( "structure",
        [
          Alcotest.test_case "cwlog shape" `Quick test_cwlog_shape;
          Alcotest.test_case "fpp plane" `Quick test_fpp_shape;
          Alcotest.test_case "wall quorum count" `Quick test_wall_quorum_count;
          Alcotest.test_case "hqs quorum count" `Quick test_hqs_quorum_count;
          Alcotest.test_case "triangle sizes" `Quick test_triangle_sizes;
          Alcotest.test_case "paths structure" `Quick test_paths_structure;
          Alcotest.test_case "y structure" `Quick test_y_structure;
          Alcotest.test_case "tree shapes" `Quick test_tree_quorum_shapes;
          Alcotest.test_case "majority sizes" `Quick test_majority_sizes;
          Alcotest.test_case "singleton fp" `Quick test_singleton_fp;
        ] );
    ]
