(* Figures 1 and 2: structural renderings with example quorums, plus an
   availability-vs-p curve (the paper describes these analytically; the
   curve makes the asymptotic-availability claim visible). *)

open Core

let figure1 () =
  Util.print_header
    "Figure 1: 3-level hierarchical grid with 16 processes and a read-write quorum";
  let g = Hgrid.of_dims [ (2, 2); (2, 2) ] in
  let rng = Quorum.Rng.create 2 in
  let live = Quorum.Bitset.universe 16 in
  let line = Quorum.Bitset.create 16 and cover = Quorum.Bitset.create 16 in
  ignore (Hgrid.select_full_line rng ~live g.Hgrid.shape line : int);
  ignore (Hgrid.select_cover rng ~live ~threshold:0 g.Hgrid.shape cover : bool);
  print_string (Hgrid.render ~quorum:(Quorum.Bitset.union line cover) g);
  let ids q =
    String.concat "," (List.map string_of_int (Quorum.Bitset.to_list q))
  in
  Printf.printf
    "(starred: a read-write quorum = full-line %s + row-cover %s)\n"
    (ids line) (ids cover)

let figure2 () =
  Util.print_header
    "Figure 2: triangle with 5 rows divided into T1 (plain), sub-grid [..] and T2 (..)";
  let t = Htriang.standard ~rows:5 () in
  print_string (Htriang.render t);
  let rng = Quorum.Rng.create 3 in
  let live = Quorum.Bitset.universe 15 in
  match Htriang.select t rng ~live with
  | Some q ->
      Printf.printf "example quorum (size %d): %s\n" (Quorum.Bitset.cardinal q)
        (String.concat ","
           (List.map string_of_int (Quorum.Bitset.to_list q)))
  | None -> ()

(* Availability curves: the asymptotic claim of sections 4/5 — adding
   levels drives failure probability to 0 for p below the threshold and
   to 1 above it. *)
let availability_curves () =
  Util.print_header
    "Availability scaling: F_p as the constructions grow (asymptotic claims)";
  Printf.printf "h-triang, F_0.1 and F_0.3 as d grows:\n";
  List.iter
    (fun rows ->
      let t = Htriang.standard ~rows () in
      Printf.printf "  d=%2d n=%4d  F(0.1)=%.2e  F(0.3)=%.2e  F(0.45)=%.3f\n"
        rows (rows * (rows + 1) / 2)
        (Htriang.failure_probability t ~p:0.1)
        (Htriang.failure_probability t ~p:0.3)
        (Htriang.failure_probability t ~p:0.45))
    [ 3; 5; 7; 10; 14; 20; 28; 40 ];
  Printf.printf "\nh-grid (read-write), F_0.1 as 2x2 levels stack:\n";
  List.iter
    (fun levels ->
      let dims = List.init levels (fun _ -> (2, 2)) in
      let g = Hgrid.of_dims dims in
      Printf.printf "  levels=%d n=%5d  F(0.1)=%.2e  F(0.3)=%.3f\n" levels
        g.Hgrid.n
        (Hgrid.failure_probability g Read_write ~p:0.1)
        (Hgrid.failure_probability g Read_write ~p:0.3))
    [ 1; 2; 3; 4; 5; 6 ];
  Printf.printf
    "\nflat grid for contrast (availability degrades with size, [15]):\n";
  List.iter
    (fun k ->
      Printf.printf "  %dx%d  F(0.1)=%.4f\n" k k
        (Systems.Grid.failure_probability ~rows:k ~cols:k
           Systems.Grid.Read_write ~p:0.1))
    [ 3; 5; 8; 12; 20 ]
