(* Tests for the paper's constructions: hierarchical grid, hierarchical
   T-grid and hierarchical triangle — including exact regressions
   against the paper's published Table 1 / Table 2 values. *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Coterie = Quorum.Coterie
module Rng = Quorum.Rng
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_paper = Alcotest.(check (float 5e-7))

(* Exact enumeration of the live sets, without the availability counts
   the constructions derive from their structure. *)
let enumerated (s : System.t) ~p =
  Analysis.Failure.exact { s with System.avail_counts = None } ~p

(* --- Hgrid structure --------------------------------------------- *)

let test_hgrid_preferred_2x2 () =
  let g = Hgrid.preferred_2x2 ~rows:4 ~cols:4 in
  check_int "4x4 peels to 16" 16 g.Hgrid.n;
  check_float "matches auto on 4x4"
    (Hgrid.failure_probability (Hgrid.auto_2x2 ~rows:4 ~cols:4 ()) Read_write
       ~p:0.1)
    (Hgrid.failure_probability g Read_write ~p:0.1)

let test_hgrid_of_dims () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  check_int "n" 16 g.Hgrid.n;
  check_int "rows" 4 g.Hgrid.global_rows;
  check_int "cols" 4 g.Hgrid.global_cols

let test_hgrid_full_universe () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let all = Bitset.universe g.Hgrid.n in
  check "row cover on full" true (Hgrid.covers all 0 g.Hgrid.shape);
  check "full line on full" true (Hgrid.lined all g.Hgrid.shape);
  let none = Bitset.create g.Hgrid.n in
  check "no cover when empty" false (Hgrid.covers none 0 g.Hgrid.shape)

let test_hgrid_flat_semantics () =
  let g = Hgrid.flat ~rows:3 ~cols:3 in
  (* Row cover = one element per global row. *)
  let diagonal = Bitset.of_list 9 [ 0; 4; 8 ] in
  check "diagonal covers" true (Hgrid.covers diagonal 0 g.Hgrid.shape);
  check "diagonal is no line" false (Hgrid.lined diagonal g.Hgrid.shape);
  let row1 = Bitset.of_list 9 [ 3; 4; 5 ] in
  check "middle row is a line" true (Hgrid.lined row1 g.Hgrid.shape);
  check "middle row is no cover" false (Hgrid.covers row1 0 g.Hgrid.shape)

let test_hgrid_quorum_counts () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  (* full lines: 2 top rows x (2 local rows per cell)^2 = 8;
     covers: per top row choose cell (2) with 4 local covers = 8 -> 64. *)
  check_int "full lines" 8 (List.length (Hgrid.full_line_quorums g.Hgrid.shape));
  check_int "row covers" 64
    (List.length (Hgrid.row_cover_quorums g.Hgrid.shape))

let test_hgrid_read_write_intersect () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let reads = List.map (Bitset.of_list 16) (Hgrid.row_cover_quorums g.Hgrid.shape) in
  let writes =
    List.map (Bitset.of_list 16) (Hgrid.full_line_quorums g.Hgrid.shape)
  in
  List.iter
    (fun r ->
      List.iter
        (fun w -> check "read x write intersect" true (Bitset.intersects r w))
        writes)
    reads

let test_hgrid_systems_coteries () =
  List.iter
    (fun g ->
      (* The read-write system is a self-intersecting coterie; the read
         and write families are antichains that intersect each other
         (checked in test_hgrid_read_write_intersect). *)
      let rw = Hgrid.rw_system g in
      let quorums = System.quorums_exn rw in
      check (rw.System.name ^ " intersects") true
        (Coterie.all_intersect quorums);
      check (rw.System.name ^ " antichain") true (Coterie.is_antichain quorums);
      List.iter
        (fun sys ->
          check
            (sys.System.name ^ " antichain")
            true
            (Coterie.is_antichain (System.quorums_exn sys)))
        [ Hgrid.read_system g; Hgrid.write_system g ])
    [ Hgrid.of_dims [ (2, 2); (2, 2) ]; Hgrid.auto_2x2 ~rows:3 ~cols:3 () ]

let test_hgrid_closed_form_vs_enum () =
  List.iter
    (fun g ->
      List.iter
        (fun mode ->
          let sys =
            match mode with
            | Hgrid.Read -> Hgrid.read_system g
            | Hgrid.Write -> Hgrid.write_system g
            | Hgrid.Read_write -> Hgrid.rw_system g
          in
          List.iter
            (fun p ->
              check_float "hgrid closed = enum" (enumerated sys ~p)
                (Hgrid.failure_probability g mode ~p))
            [ 0.1; 0.35; 0.5 ])
        [ Hgrid.Read; Hgrid.Write; Hgrid.Read_write ])
    [
      Hgrid.of_dims [ (2, 2); (2, 2) ];
      Hgrid.auto_2x2 ~rows:3 ~cols:3 ();
      Hgrid.auto_2x2 ~rows:5 ~cols:4 ();
      Hgrid.of_blocks ~row_parts:[ 2; 1 ] ~col_parts:[ 1; 2 ];
    ]

(* Table 1, h-grid columns: exact to the paper's six decimals. *)
let test_paper_table1_hgrid () =
  let cases =
    [
      (3, 3, [ (0.1, 0.016893); (0.2, 0.109235); (0.3, 0.286224); (0.5, 0.716797) ]);
      (4, 4, [ (0.1, 0.005799); (0.2, 0.069318); (0.3, 0.243795); (0.5, 0.746628) ]);
      (5, 5, [ (0.1, 0.001753); (0.2, 0.039439); (0.3, 0.191581); (0.5, 0.751019) ]);
      (6, 4, [ (0.1, 0.001949); (0.2, 0.034161); (0.3, 0.167172); (0.5, 0.725377) ]);
    ]
  in
  List.iter
    (fun (rows, cols, cells) ->
      let g = Hgrid.auto_2x2 ~rows ~cols () in
      List.iter
        (fun (p, expected) ->
          check_paper
            (Printf.sprintf "h-grid %dx%d p=%.1f" rows cols p)
            expected
            (Hgrid.failure_probability g Read_write ~p))
        cells)
    cases

(* --- Htgrid -------------------------------------------------------- *)

let test_htgrid_quorums_are_coterie () =
  List.iter
    (fun g ->
      let quorums = Htgrid.quorums g in
      check "nonempty" true (quorums <> []);
      check "intersecting" true (Coterie.all_intersect quorums);
      check "antichain" true (Coterie.is_antichain quorums))
    [
      Hgrid.of_dims [ (2, 2); (2, 2) ];
      Hgrid.auto_2x2 ~rows:3 ~cols:3 ();
      Hgrid.flat ~rows:3 ~cols:4;
    ]

(* Lemma 4.1 seen structurally: every T-grid quorum still intersects
   every full row-cover (read quorum compatibility, end of 4.2). *)
let test_htgrid_intersects_read_quorums () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let reads =
    List.map (Bitset.of_list 16) (Hgrid.row_cover_quorums g.Hgrid.shape)
  in
  List.iter
    (fun q ->
      List.iter
        (fun r -> check "tgrid x read" true (Bitset.intersects q r))
        reads)
    (Htgrid.quorums g)

(* T-grid quorums are never larger than the matching h-grid RW quorums
   and include strictly smaller ones (sqrt n vs 2 sqrt n - 1). *)
let test_htgrid_size_range () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let stats = Analysis.Metrics.of_quorums (Htgrid.quorums g) in
  check_int "min = sqrt n" 4 stats.min_size;
  check_int "max = 2 sqrt n - 1" 7 stats.max_size

(* T-grid availability dominates h-grid availability. *)
let test_htgrid_dominates_hgrid () =
  let g = Hgrid.auto_2x2 ~rows:4 ~cols:4 () in
  let h = Hgrid.rw_system g and t = Htgrid.system g in
  let rng = Rng.create 31 in
  for _ = 1 to 300 do
    let live = Bitset.random_subset rng ~n:16 ~p:0.6 in
    if h.System.avail live then
      check "tgrid avail whenever hgrid is" true (t.System.avail live)
  done

(* Table 1, h-T-grid columns. *)
let test_paper_table1_htgrid () =
  let cases =
    [
      (3, 3, [ (0.1, 0.015213); (0.2, 0.098585); (0.3, 0.259783); (0.5, 0.667969) ]);
      (4, 4, [ (0.1, 0.005361); (0.2, 0.063866); (0.3, 0.225066); (0.5, 0.706604) ]);
      (6, 4, [ (0.1, 0.000611); (0.2, 0.016690); (0.3, 0.104402); (0.5, 0.598435) ]);
    ]
  in
  List.iter
    (fun (rows, cols, cells) ->
      let g = Hgrid.auto_2x2 ~rows ~cols () in
      let poly = Analysis.Failure.exact_poly (Htgrid.system g) in
      List.iter
        (fun (p, expected) ->
          check_paper
            (Printf.sprintf "h-T-grid %dx%d p=%.1f" rows cols p)
            expected
            (Quorum.Failure_poly.eval poly ~p))
        cells)
    cases

(* Section 4.3: flat 4x4 optimal row strategy gives average quorum size
   5.85 and load 36.5%. *)
let test_paper_sect43_strategy () =
  let g = Hgrid.flat ~rows:4 ~cols:4 in
  let s = Htgrid.flat_row_strategy g in
  let loads = Quorum.Strategy.element_loads s in
  Alcotest.(check (float 1e-3)) "load 36.5%" 0.3657
    (Quorum.Strategy.system_load s);
  (* the strategy equalizes loads *)
  Array.iter
    (fun l ->
      Alcotest.(check (float 1e-9)) "uniform load"
        (Quorum.Strategy.system_load s) l)
    loads;
  Alcotest.(check (float 5e-2)) "avg size 5.8" 5.85
    (Quorum.Strategy.average_quorum_size s)

let test_htgrid_select_valid () =
  let g = Hgrid.auto_2x2 ~rows:4 ~cols:4 () in
  let sys = Htgrid.system g in
  let quorums = Htgrid.quorums g in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let live = Bitset.random_subset rng ~n:16 ~p:0.85 in
    match sys.System.select rng ~live with
    | None -> check "select none implies unavail" false (sys.System.avail live)
    | Some q ->
        check "within live" true (Bitset.subset q live);
        check "contains a minimal quorum" true
          (List.exists (fun m -> Bitset.subset m q) quorums)
  done

let test_htgrid_lower_line_variant () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let rng = Rng.create 77 in
  let quorums = Htgrid.quorums g in
  let live = Bitset.universe 16 in
  for _ = 1 to 200 do
    match Htgrid.select_lower_line ~epsilon:0.15 g rng ~live with
    | None -> Alcotest.fail "lower-line select failed on full universe"
    | Some q ->
        check "valid quorum" true
          (List.exists (fun m -> Bitset.subset m q) quorums)
  done

(* --- Htriang -------------------------------------------------------- *)

let test_htriang_decomposition () =
  let t = Htriang.standard ~rows:5 () in
  check_int "n" 15 t.Htriang.n;
  (match t.Htriang.root with
  | Htriang.Split { grid; _ } ->
      check_int "grid rows" 3 (Array.length grid);
      check_int "grid cols" 2 (Array.length grid.(0))
  | Htriang.Elem _ -> Alcotest.fail "expected split")

let test_htriang_quorums_coterie () =
  List.iter
    (fun rows ->
      let t = Htriang.standard ~rows () in
      let quorums = Htriang.quorums t in
      check "intersecting" true (Coterie.all_intersect quorums);
      check "antichain" true (Coterie.is_antichain quorums);
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "d=%d: all quorums size d" rows)
            rows (Bitset.cardinal q))
        quorums)
    [ 1; 2; 3; 4; 5; 6; 7 ]

let test_htriang_quorum_counts () =
  let count rows =
    List.length (Htriang.quorums (Htriang.standard ~rows ()))
  in
  check_int "Q(2)" 3 (count 2);
  check_int "Q(3)" 10 (count 3);
  check_int "Q(5)" 84 (count 5)

let test_htriang_avail_matches_quorums () =
  let t = Htriang.standard ~rows:4 () in
  let quorums = Htriang.quorums t in
  let scratch = Bitset.create 10 in
  for mask = 0 to (1 lsl 10) - 1 do
    Bitset.blit_mask scratch mask;
    let expected = List.exists (fun q -> Bitset.subset q scratch) quorums in
    let got = Htriang.avail t scratch in
    if expected <> got then Alcotest.failf "avail mismatch at %d" mask
  done

let test_htriang_closed_form_vs_enum () =
  List.iter
    (fun rows ->
      let t = Htriang.standard ~rows () in
      let sys = Htriang.system t in
      List.iter
        (fun p ->
          check_float "htriang closed = enum" (enumerated sys ~p)
            (Htriang.failure_probability t ~p))
        [ 0.1; 0.3; 0.5 ])
    [ 2; 3; 4; 5 ]

(* Table 2 / 3 h-triang cells. *)
let test_paper_htriang_values () =
  let t5 = Htriang.standard ~rows:5 () in
  List.iter
    (fun (p, expected) ->
      check_paper
        (Printf.sprintf "h-triang(15) p=%.1f" p)
        expected
        (Htriang.failure_probability t5 ~p))
    [ (0.1, 0.000677); (0.2, 0.016577); (0.3, 0.090712); (0.5, 0.5) ]

(* Section 5 strategy: uniform load 2/(d+1). *)
let test_htriang_strategy_load () =
  List.iter
    (fun rows ->
      let t = Htriang.standard ~rows () in
      let expected = 2.0 /. float_of_int (rows + 1) in
      check_float "k = 2/(d+1)" expected (Htriang.system_load t);
      Array.iter
        (fun l -> check_float "uniform loads" expected l)
        (Htriang.strategy_loads t))
    [ 2; 3; 5; 7; 13 ]

let test_htriang_weights_example () =
  (* d = 5 worked example: w1 = 1/6, w2 = 1/3, w3 = 1/2, k = 1/3. *)
  let w =
    Htriang.split_weights ~c1:3 ~c2:6 ~c3:6 ~q1:2 ~q2:3 ~q3l:2 ~q3r:3
  in
  check_float "w1" (1.0 /. 6.0) w.Htriang.w1;
  check_float "w2" (1.0 /. 3.0) w.Htriang.w2;
  check_float "w3" 0.5 w.Htriang.w3;
  check_float "k" (1.0 /. 3.0) w.Htriang.k

let test_htriang_select_valid () =
  let t = Htriang.standard ~rows:5 () in
  let sys = Htriang.system t in
  let quorums = Htriang.quorums t in
  let rng = Rng.create 12 in
  for _ = 1 to 300 do
    let live = Bitset.random_subset rng ~n:15 ~p:0.8 in
    match Htriang.select t rng ~live with
    | None -> check "none implies unavail" false (sys.System.avail live)
    | Some q ->
        check "subset of live" true (Bitset.subset q live);
        check "is a quorum" true
          (List.exists (fun m -> Bitset.subset m q) quorums)
  done

(* Growth rules: each one adds processes and improves availability at
   moderate p. *)
let test_htriang_growth () =
  let t = Htriang.standard ~rows:3 () in
  let checks label grown =
    match grown with
    | None -> Alcotest.fail (label ^ ": no growth site")
    | Some t' ->
        check (label ^ ": grew") true (t'.Htriang.n > t.Htriang.n);
        let quorums = Htriang.quorums t' in
        check (label ^ ": still a coterie") true
          (Coterie.all_intersect quorums && Coterie.is_antichain quorums);
        List.iter
          (fun p ->
            check (label ^ ": availability improved") true
              (Htriang.failure_probability t' ~p
              <= Htriang.failure_probability t ~p +. 1e-12))
          [ 0.05; 0.1; 0.2 ]
  in
  checks "unit triangle" (Htriang.grow_unit_triangle t);
  checks "unit grid" (Htriang.grow_unit_grid t);
  checks "square grid" (Htriang.grow_square_grid t)

let test_htriang_growth_chain () =
  (* Repeated growth keeps the coterie sound. *)
  let rec grow_n t n =
    if n = 0 then t
    else
      match Htriang.grow_unit_triangle t with
      | Some t' -> grow_n t' (n - 1)
      | None -> t
  in
  let t = grow_n (Htriang.standard ~rows:4 ()) 3 in
  let quorums = Htriang.quorums t in
  check "chain coterie" true (Coterie.all_intersect quorums);
  check_int "grew by 6" 16 t.Htriang.n

(* qcheck: an arbitrary interleaving of the paper's growth rules and
   their shrink inverses, started from any standard triangle, keeps
   the quorum set a coterie (pairwise-intersecting antichain) at every
   intermediate step — the invariant the online resize controller
   (Protocols.Membership) relies on when it applies one rule per epoch
   switch.  Rules that do not apply (no growth/shrink site) are
   skipped, exactly as the controller skips them.

   Each listed quorum q is checked against the monotone [avail]: q is
   available, its complement is not, and neither is q minus any one
   element.  That implies the list is a coterie (a disjoint pair would
   put one quorum inside the other's complement, a nested pair the
   smaller inside the larger minus some element) in time linear in
   the list, where the pairwise checks were quadratic. *)
let htriang_rules_keep_coterie =
  QCheck.Test.make ~count:50
    ~name:"random grow/shrink sequences preserve the coterie"
    QCheck.(
      pair (int_range 2 4) (list_of_size Gen.(int_range 1 8) (int_range 0 5)))
    (fun (rows, ops) ->
      let apply t op =
        let rule =
          match op with
          | 0 -> Htriang.grow_unit_triangle
          | 1 -> Htriang.grow_unit_grid
          | 2 -> Htriang.grow_square_grid
          | 3 -> Htriang.shrink_unit_triangle
          | 4 -> Htriang.shrink_unit_grid
          | _ -> Htriang.shrink_square_grid
        in
        match rule t with None -> t | Some t' -> t'
      in
      let sound t =
        let avail = Htriang.avail t in
        let without q e =
          let q' = Bitset.copy q in
          Bitset.remove q' e;
          q'
        in
        List.for_all
          (fun q ->
            avail q
            && (not (avail (Bitset.complement q)))
            && Bitset.for_all (fun e -> not (avail (without q e))) q)
          (Htriang.quorums t)
      in
      let rec go t = function
        | [] -> true
        | op :: rest ->
            let t' = apply t op in
            sound t' && go t' rest
      in
      go (Htriang.standard ~rows ()) ops)

(* --- Registry ------------------------------------------------------- *)

let test_registry_builds () =
  (* Every catalogue example must build, and must build its own family. *)
  List.iter
    (fun (e : Registry.entry) ->
      (match Registry.build e.example with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "registry %s: %s" e.example msg);
      match Registry.parse_spec e.example with
      | Ok (name, _) ->
          Alcotest.(check string) (e.family ^ " example family") e.family name
      | Error msg -> Alcotest.failf "registry %s: %s" e.example msg)
    Registry.catalogue;
  check "find htriang" true (Registry.find "htriang" <> None);
  check "find unknown" true (Registry.find "nonsense" = None)

let test_registry_rejects () =
  check "unknown" true (Result.is_error (Registry.build "nonsense(3)"));
  check "bad triangle" true (Result.is_error (Registry.build "htriang(16)"));
  check "bad tree" true (Result.is_error (Registry.build "tree(10)"))

let test_registry_lineups () =
  check_int "15 lineup" 7 (List.length (Registry.paper_lineup_15 ()));
  check_int "28 lineup" 7 (List.length (Registry.paper_lineup_28 ()))

(* --- Rendering ------------------------------------------------------ *)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let test_renders () =
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let s = Hgrid.render g in
  check "render mentions last id" true (contains_substring s "15");
  let t = Htriang.standard ~rows:5 () in
  let r = Htriang.render t in
  check "triangle render has grid marks" true (contains_substring r "[");
  check "triangle render has t2 marks" true (contains_substring r "(")

let () =
  Alcotest.run "core"
    [
      ( "hgrid",
        [
          Alcotest.test_case "of_dims" `Quick test_hgrid_of_dims;
          Alcotest.test_case "preferred_2x2" `Quick test_hgrid_preferred_2x2;
          Alcotest.test_case "full universe" `Quick test_hgrid_full_universe;
          Alcotest.test_case "flat semantics" `Quick test_hgrid_flat_semantics;
          Alcotest.test_case "quorum counts" `Quick test_hgrid_quorum_counts;
          Alcotest.test_case "read x write" `Quick
            test_hgrid_read_write_intersect;
          Alcotest.test_case "coteries" `Quick test_hgrid_systems_coteries;
          Alcotest.test_case "closed form" `Slow test_hgrid_closed_form_vs_enum;
          Alcotest.test_case "paper table 1 (h-grid)" `Quick
            test_paper_table1_hgrid;
        ] );
      ( "htgrid",
        [
          Alcotest.test_case "coterie" `Quick test_htgrid_quorums_are_coterie;
          Alcotest.test_case "x read quorums" `Quick
            test_htgrid_intersects_read_quorums;
          Alcotest.test_case "size range" `Quick test_htgrid_size_range;
          Alcotest.test_case "dominates h-grid" `Quick
            test_htgrid_dominates_hgrid;
          Alcotest.test_case "paper table 1 (h-T-grid)" `Slow
            test_paper_table1_htgrid;
          Alcotest.test_case "section 4.3 strategy" `Quick
            test_paper_sect43_strategy;
          Alcotest.test_case "select" `Quick test_htgrid_select_valid;
          Alcotest.test_case "lower-line variant" `Quick
            test_htgrid_lower_line_variant;
        ] );
      ( "htriang",
        [
          Alcotest.test_case "decomposition" `Quick test_htriang_decomposition;
          Alcotest.test_case "coterie, size d" `Quick
            test_htriang_quorums_coterie;
          Alcotest.test_case "quorum counts" `Quick test_htriang_quorum_counts;
          Alcotest.test_case "avail = quorums" `Quick
            test_htriang_avail_matches_quorums;
          Alcotest.test_case "closed = enum" `Quick
            test_htriang_closed_form_vs_enum;
          Alcotest.test_case "paper values" `Quick test_paper_htriang_values;
          Alcotest.test_case "strategy load" `Quick test_htriang_strategy_load;
          Alcotest.test_case "weights example" `Quick
            test_htriang_weights_example;
          Alcotest.test_case "select" `Quick test_htriang_select_valid;
          Alcotest.test_case "growth" `Quick test_htriang_growth;
          Alcotest.test_case "growth chain" `Quick test_htriang_growth_chain;
          QCheck_alcotest.to_alcotest htriang_rules_keep_coterie;
        ] );
      ( "registry",
        [
          Alcotest.test_case "builds" `Quick test_registry_builds;
          Alcotest.test_case "rejects" `Quick test_registry_rejects;
          Alcotest.test_case "lineups" `Quick test_registry_lineups;
        ] );
      ("render", [ Alcotest.test_case "renders" `Quick test_renders ]);
    ]
