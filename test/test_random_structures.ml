(* Property-based testing over randomly generated structures: random
   walls, random hierarchical grid shapes, and randomly grown
   triangles.  Every instance must satisfy the quorum-system invariants
   (intersection, antichain, availability = quorum containment,
   closed-form failure probability = exact enumeration). *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Coterie = Quorum.Coterie

(* --- Generators ------------------------------------------------------ *)

let wall_gen =
  QCheck.Gen.(
    list_size (int_range 1 5) (int_range 1 4) >|= fun widths ->
    Array.of_list widths)

let wall_arb =
  QCheck.make ~print:(fun w ->
      String.concat "-" (Array.to_list (Array.map string_of_int w)))
    wall_gen

let block_parts_gen =
  QCheck.Gen.(list_size (int_range 1 3) (int_range 1 2))

let blocks_arb =
  QCheck.make
    ~print:(fun (rp, cp) ->
      Printf.sprintf "r%s c%s"
        (String.concat "" (List.map string_of_int rp))
        (String.concat "" (List.map string_of_int cp)))
    QCheck.Gen.(pair block_parts_gen block_parts_gen)

(* A triangle grown by a random sequence of growth rules. *)
let grown_triangle_gen =
  QCheck.Gen.(
    pair (int_range 2 5) (list_size (int_range 0 3) (int_range 0 2))
    >|= fun (rows, steps) ->
    List.fold_left
      (fun t step ->
        let grow =
          match step with
          | 0 -> Core.Htriang.grow_unit_triangle
          | 1 -> Core.Htriang.grow_unit_grid
          | _ -> Core.Htriang.grow_square_grid
        in
        match grow t with Some t' -> t' | None -> t)
      (Core.Htriang.standard ~rows ())
      steps)

let grown_triangle_arb =
  QCheck.make
    ~print:(fun t -> Printf.sprintf "triangle n=%d" t.Core.Htriang.n)
    grown_triangle_gen

(* --- Shared checks ---------------------------------------------------- *)

let coterie_ok (s : System.t) =
  let quorums = System.quorums_exn s in
  quorums <> []
  && Coterie.all_intersect quorums
  && Coterie.is_antichain quorums

let avail_matches_quorums (s : System.t) =
  if s.n > 13 then true
  else begin
    let quorums = System.quorums_exn s in
    let avail = System.avail_mask_exn s in
    let scratch = Bitset.create s.n in
    let rec scan mask =
      mask > (1 lsl s.n) - 1
      ||
      (Bitset.blit_mask scratch mask;
       let expected = List.exists (fun q -> Bitset.subset q scratch) quorums in
       expected = avail mask && scan (mask + 1))
    in
    scan 0
  end

(* Exact enumeration of the live sets: the availability counts that
   some families derive from their structure are stripped, so that
   [exact_poly] walks the sets themselves. *)
let enumerated (s : System.t) ~p =
  Analysis.Failure.exact { s with System.avail_counts = None } ~p

let closed_form_matches (s : System.t) closed =
  s.n > 18
  || List.for_all
       (fun p -> abs_float (enumerated s ~p -. closed ~p) < 1e-9)
       [ 0.15; 0.5; 0.8 ]

(* --- Properties ------------------------------------------------------- *)

let wall_properties =
  QCheck.Test.make ~name:"random walls are sound quorum systems" ~count:40
    wall_arb
    (fun widths ->
      let s = Systems.Wall.system widths in
      coterie_ok s
      && avail_matches_quorums s
      && closed_form_matches s (fun ~p ->
             Systems.Wall.failure_probability ~widths ~p))

let blocks_properties =
  QCheck.Test.make
    ~name:"random block hierarchies: h-grid and h-T-grid are sound"
    ~count:25 blocks_arb
    (fun (row_parts, col_parts) ->
      let g = Core.Hgrid.of_blocks ~row_parts ~col_parts in
      let rw = Core.Hgrid.rw_system g in
      let tg = Core.Htgrid.system g in
      coterie_ok rw && coterie_ok tg
      && avail_matches_quorums rw
      && avail_matches_quorums tg
      && closed_form_matches rw (fun ~p ->
             Core.Hgrid.failure_probability g Core.Hgrid.Read_write ~p)
      (* The T-grid refinement never hurts availability (checked by
         exact enumeration, so only on enumerable universes). *)
      && (g.Core.Hgrid.n > 18
         || List.for_all
              (fun p ->
                enumerated tg ~p <= enumerated rw ~p +. 1e-12)
              [ 0.2; 0.5 ]))

let grown_triangle_properties =
  QCheck.Test.make ~name:"randomly grown triangles stay sound" ~count:25
    grown_triangle_arb
    (fun t ->
      let s = Core.Htriang.system t in
      coterie_ok s
      && avail_matches_quorums s
      && closed_form_matches s (fun ~p -> Core.Htriang.failure_probability t ~p)
      (* Strategy loads remain a probability distribution summing to the
         expected quorum size. *)
      &&
      let loads = Core.Htriang.strategy_loads t in
      Array.for_all (fun l -> l >= -1e-9 && l <= 1.0 +. 1e-9) loads)

let auto_2x2_properties =
  QCheck.Test.make ~name:"auto_2x2 hierarchies sound for all dims" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (rows, cols) ->
      let g = Core.Hgrid.auto_2x2 ~rows ~cols () in
      let rw = Core.Hgrid.rw_system g in
      coterie_ok rw
      && closed_form_matches rw (fun ~p ->
             Core.Hgrid.failure_probability g Core.Hgrid.Read_write ~p))

let hetero_random_walls =
  QCheck.Test.make ~name:"wall hetero closed form on random instances"
    ~count:40
    QCheck.(pair wall_arb (int_bound 1000))
    (fun (widths, seed) ->
      let s = Systems.Wall.system widths in
      QCheck.assume (s.System.n <= 18);
      let rng = Quorum.Rng.create seed in
      let ps =
        Array.init s.System.n (fun _ -> 0.1 +. (0.6 *. Quorum.Rng.float rng))
      in
      let closed =
        Systems.Wall.failure_probability_hetero ~widths ~p_of:(fun i ->
            ps.(i))
      in
      let exact =
        Analysis.Failure.exact_hetero s ~p_of:(fun i -> ps.(i))
      in
      abs_float (closed -. exact) < 1e-9)

let select_random_structures =
  QCheck.Test.make ~name:"selection valid on random walls under crashes"
    ~count:60
    QCheck.(pair wall_arb (int_bound 1000))
    (fun (widths, seed) ->
      let s = Systems.Wall.system widths in
      let rng = Quorum.Rng.create seed in
      let live = Bitset.random_subset rng ~n:s.System.n ~p:0.7 in
      match s.System.select rng ~live with
      | None -> not (s.System.avail live)
      | Some q -> Bitset.subset q live && s.System.avail q)

let () =
  Alcotest.run "random-structures"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest wall_properties;
          QCheck_alcotest.to_alcotest blocks_properties;
          QCheck_alcotest.to_alcotest grown_triangle_properties;
          QCheck_alcotest.to_alcotest auto_2x2_properties;
          QCheck_alcotest.to_alcotest hetero_random_walls;
          QCheck_alcotest.to_alcotest select_random_structures;
        ] );
    ]
