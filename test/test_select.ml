(* Reference oracles for the quorum selectors the simulator runs, and
   for the availability checks of the exact 2^n scans.

   The library's selectors write straight into the one bitset they
   return.  Each oracle below is a list-based selector that builds the
   same quorum from the same draws, together with the helpers it
   calls.  Every
   property runs an oracle and the library selector on the same random
   live set from equal seeds, and requires the same [Bitset.t option]
   and the same RNG position afterwards: a rewrite that moves, adds or
   drops a single draw fails here, and so does one that evaluates two
   sub-selections in the other order.

   The library's availability checks are closure-free loops, one over
   the live bitset and one over a raw mask.  Their oracles are the
   predicates they replaced, over the membership function of the live
   set; the "avail" properties require [avail_mask m],
   [avail (Bitset.of_mask ~n m)] and the oracle to agree on random
   masks, and the "alloc" tests that neither check allocates. *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng
open Core

type select = Rng.t -> live:Bitset.t -> Bitset.t option

(* --- Weighted voting (majority) ----------------------------------- *)

let voting_oracle votes : select =
  let total = Array.fold_left ( + ) 0 votes in
  let n = Array.length votes in
  let enough sum = 2 * sum > total in
  fun rng ~live ->
    let members = Bitset.to_list live in
    let arr = Array.of_list members in
    Quorum.Rng.shuffle_in_place rng arr;
    let by_votes = Array.copy arr in
    Array.sort (fun a b -> compare votes.(b) votes.(a)) by_votes;
    let quorum = Bitset.create n in
    let rec take i sum =
      if enough sum then true
      else if i = Array.length by_votes then false
      else begin
        Bitset.add quorum by_votes.(i);
        take (i + 1) (sum + votes.(by_votes.(i)))
      end
    in
    if not (take 0 0) then None
    else begin
      (* Drop members that are not needed, in random order, to reach a
         minimal quorum. *)
      let sum = ref (Bitset.fold (fun i acc -> acc + votes.(i)) quorum 0) in
      Array.iter
        (fun i ->
          if Bitset.mem quorum i && enough (!sum - votes.(i)) then begin
            Bitset.remove quorum i;
            sum := !sum - votes.(i)
          end)
        arr;
      Some quorum
    end

(* The availability test weighted voting had before its vote classes. *)
let voting_avail votes mem =
  let total = Array.fold_left ( + ) 0 votes in
  let sum = ref 0 in
  Array.iteri (fun i v -> if mem i then sum := !sum + v) votes;
  2 * !sum > total

(* [Systems.Majority]'s votes: one process holds two on even [n]. *)
let majority_votes n =
  Array.init n (fun i -> if i = 0 && n mod 2 = 0 then 2 else 1)

(* --- Hierarchical triangle ---------------------------------------- *)

module Htriang_oracle = struct
  open Htriang

  let grid_cover_ok mem grid =
    Array.for_all (fun row -> Array.exists mem row) grid

  let grid_line_ok mem grid =
    Array.exists (fun row -> Array.for_all mem row) grid

  let rec avail_node mem = function
    | Elem e -> mem e
    | Split { t1; grid; t2 } ->
        let a = avail_node mem t1 in
        let b = avail_node mem t2 in
        (a && b)
        || (a && grid_cover_ok mem grid)
        || (b && grid_line_ok mem grid)

  let rec node_size = function
    | Elem _ -> 1
    | Split { t1; grid; t2 } ->
        node_size t1 + node_size t2
        + Array.fold_left (fun acc row -> acc + Array.length row) 0 grid

  let rec quorum_size = function
    | Elem _ -> 1
    | Split { t1; grid; _ } -> quorum_size t1 + Array.length grid

  let weights_of_split t1 grid t2 =
    let c1 = node_size t1 and c2 = node_size t2 in
    let c3 = Array.fold_left (fun acc row -> acc + Array.length row) 0 grid in
    split_weights ~c1 ~c2 ~c3 ~q1:(quorum_size t1) ~q2:(quorum_size t2)
      ~q3l:(Array.length grid.(0))
      ~q3r:(Array.length grid)

  let select_grid_cover rng mem grid =
    let pick_row row =
      let live = Array.of_list (List.filter mem (Array.to_list row)) in
      if Array.length live = 0 then None else Some (Rng.pick rng live)
    in
    let rec go i acc =
      if i = Array.length grid then Some acc
      else
        match pick_row grid.(i) with
        | None -> None
        | Some e -> go (i + 1) (e :: acc)
    in
    go 0 []

  let select_grid_line rng mem grid =
    let full =
      Array.to_list grid |> List.filter (fun row -> Array.for_all mem row)
    in
    match full with
    | [] -> None
    | _ -> Some (Array.to_list (Rng.pick rng (Array.of_list full)))

  let rec select_node rng mem = function
    | Elem e -> if mem e then Some [ e ] else None
    | Split { t1; grid; t2 } ->
        let a = avail_node mem t1 and b = avail_node mem t2 in
        let rc = grid_cover_ok mem grid and fl = grid_line_ok mem grid in
        let { w1; w2; w3; k = _ } = weights_of_split t1 grid t2 in
        let methods =
          List.filter
            (fun (w, feasible, _) -> feasible && w > 0.0)
            [
              ((w1 : float), a && b, `M1);
              (w2, a && rc, `M2);
              (w3, b && fl, `M3);
            ]
        in
        if methods = [] then None
        else begin
          let weights =
            Array.of_list (List.map (fun (w, _, _) -> w) methods)
          in
          let _, _, m = List.nth methods (Rng.pick_weighted rng ~weights) in
          let join x y =
            match (x, y) with Some x, Some y -> Some (x @ y) | _ -> None
          in
          match m with
          | `M1 -> join (select_node rng mem t1) (select_node rng mem t2)
          | `M2 ->
              join (select_node rng mem t1) (select_grid_cover rng mem grid)
          | `M3 ->
              join (select_node rng mem t2) (select_grid_line rng mem grid)
        end

  let select t rng ~live =
    Option.map (Bitset.of_list t.n)
      (select_node rng (Bitset.mem live) t.root)
end

(* --- Hierarchical grid -------------------------------------------- *)

module Hgrid_oracle = struct
  open Hgrid

  (* The structural predicates [Hgrid]'s systems used to check
     availability with. *)
  let rec row_cover_ok mem = function
    | Leaf l -> mem l.id
    | Grid g ->
        Array.for_all (fun row -> Array.exists (row_cover_ok mem) row) g.cells

  let rec full_line_ok mem = function
    | Leaf l -> mem l.id
    | Grid g ->
        Array.exists (fun row -> Array.for_all (full_line_ok mem) row) g.cells

  let rec full_line_max_base mem = function
    | Leaf l -> if mem l.id then Some l.row else None
    | Grid g ->
        (* A full-line of the grid combines full-lines of all cells of
           one row; its topmost global row is the min over cells, which
           each cell maximizes independently. *)
        let row_candidate row =
          Array.fold_left
            (fun acc cell ->
              match (acc, full_line_max_base mem cell) with
              | None, _ | _, None -> None
              | Some a, Some b -> Some (min a b))
            (Some max_int) row
        in
        Array.fold_left
          (fun best row ->
            match (best, row_candidate row) with
            | None, c -> c
            | b, None -> b
            | Some b, Some c -> Some (max b c))
          None g.cells

  let rec row_cover_ok_at mem r = function
    | Leaf l -> l.row < r || mem l.id
    | Grid g ->
        g.row1 <= r
        || Array.for_all
             (fun row -> Array.exists (row_cover_ok_at mem r) row)
             g.cells

  let mem_of_live live i = Bitset.mem live i
  let mem_of_mask mask i = mask land (1 lsl i) <> 0

  (* Each system's availability, as [make_system] built it. *)
  let read_avail (t : Hgrid.t) mem = row_cover_ok mem t.shape
  let write_avail (t : Hgrid.t) mem = full_line_ok mem t.shape

  let rw_avail (t : Hgrid.t) mem =
    row_cover_ok mem t.shape && full_line_ok mem t.shape

  let rec select_row_cover rng mem = function
    | Leaf l -> if mem l.id then Some [ l.id ] else None
    | Grid g ->
        let pick_in_row row =
          let order = Array.copy row in
          Rng.shuffle_in_place rng order;
          let rec try_cells i =
            if i = Array.length order then None
            else
              match select_row_cover rng mem order.(i) with
              | Some q -> Some q
              | None -> try_cells (i + 1)
          in
          try_cells 0
        in
        let rec all_rows i acc =
          if i = Array.length g.cells then Some acc
          else
            match pick_in_row g.cells.(i) with
            | None -> None
            | Some q -> all_rows (i + 1) (q @ acc)
        in
        all_rows 0 []

  let rec select_full_line rng mem = function
    | Leaf l -> if mem l.id then Some [ l.id ] else None
    | Grid g ->
        let try_row row =
          let rec all j acc =
            if j = Array.length row then Some acc
            else
              match select_full_line rng mem row.(j) with
              | None -> None
              | Some q -> all (j + 1) (q @ acc)
          in
          all 0 []
        in
        let order = Array.init (Array.length g.cells) (fun i -> i) in
        Rng.shuffle_in_place rng order;
        let rec try_rows i =
          if i = Array.length order then None
          else
            match try_row g.cells.(order.(i)) with
            | Some q -> Some q
            | None -> try_rows (i + 1)
        in
        try_rows 0

  (* [make_system]'s select around each mode's [select_fn]. *)
  let of_select_fn (t : Hgrid.t) select_fn rng ~live =
    Option.map (Bitset.of_list t.n) (select_fn rng (mem_of_live live))

  let read t =
    of_select_fn t (fun rng mem -> select_row_cover rng mem t.shape)

  let write t =
    of_select_fn t (fun rng mem -> select_full_line rng mem t.shape)

  let rw t =
    of_select_fn t (fun rng mem ->
        match
          ( select_full_line rng mem t.shape,
            select_row_cover rng mem t.shape )
        with
        | Some l, Some c -> Some (l @ c)
        | _ -> None)
end

(* --- Hierarchical T-grid ------------------------------------------ *)

module Htgrid_oracle = struct
  let mem_of_live = Hgrid_oracle.mem_of_live

  (* The availability [Htgrid] checked before its closure-free base
     scan: the best (lowest-sitting) live full-line determines the
     largest usable threshold r*; by monotonicity of partial covers in
     the threshold, a T-grid quorum exists iff the threshold-r* partial
     cover is live. *)
  let avail_fn (t : Hgrid.t) mem =
    match Hgrid_oracle.full_line_max_base mem t.shape with
    | None -> false
    | Some r -> Hgrid_oracle.row_cover_ok_at mem r t.shape

  let select_partial_cover rng mem r shape =
    let rec go = function
      | Hgrid.Leaf l ->
          if l.row < r then Some []
          else if mem l.id then Some [ l.id ]
          else None
      | Hgrid.Grid g ->
          if g.row1 <= r then Some []
          else begin
            let pick_in_row row =
              let order = Array.copy row in
              Rng.shuffle_in_place rng order;
              let rec try_cells i =
                if i = Array.length order then None
                else
                  match go order.(i) with
                  | Some q -> Some q
                  | None -> try_cells (i + 1)
              in
              try_cells 0
            in
            let rec all_rows i acc =
              if i = Array.length g.cells then Some acc
              else
                match pick_in_row g.cells.(i) with
                | None -> None
                | Some q -> all_rows (i + 1) (q @ acc)
            in
            all_rows 0 []
          end
    in
    go shape

  let select (t : Hgrid.t) rng ~live =
    let mem = mem_of_live live in
    match Hgrid_oracle.select_full_line rng mem t.shape with
    | None -> None
    | Some line ->
        let base =
          List.fold_left
            (fun acc id -> min acc (id / t.global_cols))
            max_int line
        in
        (match select_partial_cover rng mem base t.shape with
        | None ->
            (* The chosen line's threshold has no live partial cover; the
               guaranteed fallback is the full cover (threshold 0). *)
            (match
               ( Hgrid_oracle.full_line_max_base mem t.shape,
                 Hgrid_oracle.select_row_cover rng mem t.shape )
             with
            | Some _, Some cover -> Some (Bitset.of_list t.n (line @ cover))
            | _ -> None)
        | Some cover -> Some (Bitset.of_list t.n (line @ cover)))

  let row_weights ~rows ~cols =
    let u = Array.make rows 0.0 in
    let s = ref 0.0 in
    for r = 0 to rows - 1 do
      u.(r) <- 1.0 -. (!s /. float_of_int cols);
      s := !s +. u.(r)
    done;
    let k = 1.0 /. !s in
    (Array.map (fun x -> x *. k) u, k)

  let select_lower_line ~epsilon (t : Hgrid.t) rng ~live =
    if epsilon < 0.0 || epsilon > 1.0 then
      invalid_arg "Htgrid.select_lower_line: epsilon out of [0,1]";
    let mem = mem_of_live live in
    let weights, _ = row_weights ~rows:t.global_rows ~cols:t.global_cols in
    let target = Rng.pick_weighted rng ~weights in
    let rec line_frag node target =
      match node with
      | Hgrid.Leaf l -> if mem l.id then Some [ l.id ] else None
      | Hgrid.Grid g ->
          let m = Array.length g.cells in
          let span = (g.row1 - g.row0) / m in
          let intended = min (m - 1) (max 0 ((target - g.row0) / span)) in
          let band =
            if intended < m - 1 && Rng.bernoulli rng epsilon then
              intended + 1 + Rng.int rng (m - 1 - intended)
            else intended
          in
          let row = g.cells.(band) in
          let sub_target =
            if band = intended then target else g.row0 + (band * span)
          in
          let rec all j acc =
            if j = Array.length row then Some acc
            else
              match line_frag row.(j) sub_target with
              | None -> None
              | Some q -> all (j + 1) (q @ acc)
          in
          all 0 []
    in
    match line_frag t.shape target with
    | None -> None
    | Some line ->
        let base =
          List.fold_left
            (fun acc id -> min acc (id / t.global_cols))
            max_int line
        in
        (match select_partial_cover rng mem base t.shape with
        | None -> None
        | Some cover -> Some (Bitset.of_list t.n (line @ cover)))
end

(* --- Placement (System.embed) ------------------------------------- *)

let embed_oracle ~universe ~place ~base_n (base_select : select) : select =
  let logical_live live =
    let llive = Bitset.create base_n in
    Array.iteri (fun l p -> if Bitset.mem live p then Bitset.add llive l) place;
    llive
  in
  let physical q =
    let phys = Bitset.create universe in
    Bitset.iter (fun l -> Bitset.add phys place.(l)) q;
    phys
  in
  fun rng ~live ->
    Option.map physical (base_select rng ~live:(logical_live live))

(* --- The comparison ----------------------------------------------- *)

let same_option a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Bitset.equal x y
  | Some _, None | None, Some _ -> false

(* A stream of live sets from one seed, each selected by the oracle and
   the library from twin generators: equal results, and the generators
   still in step after every selection. *)
let agree ~n ~(oracle : select) ~(select : select) seed =
  let src = Rng.create seed in
  let r_oracle = Rng.create (seed + 1) in
  let r_lib = Rng.copy r_oracle in
  let ok = ref true in
  for _ = 1 to 8 do
    let p = 0.4 +. (0.6 *. Rng.float src) in
    let live = Bitset.random_subset src ~n ~p in
    let a = oracle r_oracle ~live and b = select r_lib ~live in
    if not (same_option a b) then ok := false;
    if Rng.bits64 r_oracle <> Rng.bits64 r_lib then ok := false
  done;
  !ok

let seed_arb = QCheck.int_bound 1_000_000

(* --- Families ------------------------------------------------------ *)

let voting_votes =
  QCheck.(
    pair seed_arb (array_of_size Gen.(int_range 1 12) (int_range 0 4)))

let voting_matches =
  QCheck.Test.make ~count:300 ~name:"weighted voting = list oracle"
    voting_votes (fun (seed, votes) ->
      QCheck.assume (Array.exists (fun v -> v > 0) votes);
      let s = Systems.Weighted_voting.system ~votes () in
      agree ~n:s.System.n ~oracle:(voting_oracle votes) ~select:s.System.select
        seed)

let majority_matches =
  QCheck.Test.make ~count:200 ~name:"majority (odd and even n) = list oracle"
    QCheck.(pair seed_arb (int_range 1 20))
    (fun (seed, n) ->
      let s = Systems.Majority.make n in
      agree ~n ~oracle:(voting_oracle (majority_votes n))
        ~select:s.System.select seed)

(* Standard triangles with 1-7 rows and either split, then a random
   sequence of the growth and shrink rules. *)
let htriang_shape =
  QCheck.(
    triple seed_arb (pair (int_range 1 7) bool)
      (list_of_size Gen.(int_range 0 6) (int_range 0 5)))

let apply_rule t op =
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

let htriang_matches =
  QCheck.Test.make ~count:300
    ~name:"h-triang (rows 1-7, grown and shrunk) = list oracle" htriang_shape
    (fun (seed, (rows, ceil), ops) ->
      let split = if ceil then `Ceil else `Floor in
      let t =
        List.fold_left apply_rule (Htriang.standard ~split ~rows ()) ops
      in
      agree ~n:t.Htriang.n ~oracle:(Htriang_oracle.select t)
        ~select:(Htriang.select t) seed
      && agree ~n:t.Htriang.n ~oracle:(Htriang_oracle.select t)
           ~select:(Htriang.system t).System.select (seed + 7))

(* Flat and nested shapes and non-uniform blocks, including rows of
   more than 15 cells and grids of more than 15 rows, whose visiting
   orders no longer pack into an int. *)
let grid_shapes =
  [|
    Hgrid.flat ~rows:2 ~cols:3;
    Hgrid.flat ~rows:4 ~cols:4;
    Hgrid.of_dims [ (2, 2); (2, 2) ];
    Hgrid.auto_2x2 ~rows:6 ~cols:4 ();
    Hgrid.auto_2x2 ~ceil_first:true ~rows:5 ~cols:3 ();
    Hgrid.preferred_2x2 ~rows:6 ~cols:4;
    Hgrid.of_dims [ (2, 3); (3, 2) ];
    Hgrid.of_blocks ~row_parts:[ 1; 2; 2 ] ~col_parts:[ 1; 2; 2 ];
    Hgrid.flat ~rows:2 ~cols:17;
    Hgrid.flat ~rows:17 ~cols:2;
    Hgrid.of_dims [ (1, 16); (2, 1) ];
    Hgrid.flat ~rows:1 ~cols:1;
  |]

let grid_arb =
  QCheck.(
    pair seed_arb (int_bound (Array.length grid_shapes - 1)))

let hgrid_matches =
  QCheck.Test.make ~count:400 ~name:"h-grid read/write/rw = list oracle"
    grid_arb (fun (seed, i) ->
      let g = grid_shapes.(i) in
      let n = g.Hgrid.n in
      agree ~n ~oracle:(Hgrid_oracle.read g)
        ~select:(Hgrid.read_system g).System.select seed
      && agree ~n ~oracle:(Hgrid_oracle.write g)
           ~select:(Hgrid.write_system g).System.select (seed + 1)
      && agree ~n ~oracle:(Hgrid_oracle.rw g)
           ~select:(Hgrid.rw_system g).System.select (seed + 2))

let htgrid_matches =
  QCheck.Test.make ~count:400 ~name:"h-T-grid = list oracle" grid_arb
    (fun (seed, i) ->
      let g = grid_shapes.(i) in
      let n = g.Hgrid.n in
      agree ~n ~oracle:(Htgrid_oracle.select g)
        ~select:(Htgrid.system g).System.select seed
      && List.for_all
           (fun epsilon ->
             agree ~n
               ~oracle:(Htgrid_oracle.select_lower_line ~epsilon g)
               ~select:(Htgrid.select_lower_line ~epsilon g)
               (seed + 3))
           [ 0.0; 0.3; 1.0 ])

(* --- Completeness ---------------------------------------------------- *)

(* Whenever a quorum is live, [select] returns one: [Some q] with q a
   live quorum exactly when [avail live] holds.  Every catalogue
   example and the standard h-triangs the simulator runs, but not the
   h-T-grid, whose selector tries only the first full-line its shuffled
   rows give and so refuses some live quorums (a fallback to the lowest
   live line fixes it, but moves the simulated results of [bench
   sims]), nor triangles reshaped by growth and shrink, whose selector
   never draws a zero-weight method. *)
let complete_specs =
  List.filter_map
    (fun e ->
      if e.Registry.family = "htgrid" then None else Some e.Registry.example)
    Registry.catalogue
  @ [ "htriang(15)"; "htriang(21)"; "htriang(28)" ]

let complete_systems =
  lazy (List.map (fun spec -> (spec, Registry.build_exn spec)) complete_specs)

let select_is_complete =
  QCheck.Test.make ~count:200
    ~name:"select returns a live quorum exactly when avail holds" seed_arb
    (fun seed ->
      let src = Rng.create seed and rng = Rng.create (seed + 1) in
      List.for_all
        (fun (spec, (s : System.t)) ->
          for _ = 1 to 25 do
            let p = 0.4 +. (0.6 *. Rng.float src) in
            let live = Bitset.random_subset src ~n:s.System.n ~p in
            let expected = s.System.avail live in
            match s.System.select rng ~live with
            | Some q when expected && Bitset.subset q live && s.System.avail q
              ->
                ()
            | None when not expected -> ()
            | Some _ | None ->
                let members = List.map string_of_int (Bitset.to_list live) in
                QCheck.Test.fail_reportf "%s on live set {%s}: avail %b" spec
                  (String.concat "," members) expected
          done;
          true)
        (Lazy.force complete_systems))

(* A base system and its list oracle, placed at random distinct
   processes of a larger universe. *)
let embed_bases =
  [|
    (fun () ->
      (Systems.Majority.make 6, voting_oracle (majority_votes 6)));
    (fun () ->
      let t = Htriang.standard ~rows:4 () in
      (Htriang.system t, Htriang_oracle.select t));
    (fun () ->
      let g = Hgrid.auto_2x2 ~rows:3 ~cols:3 () in
      (Hgrid.read_system g, Hgrid_oracle.read g));
    (fun () ->
      let g = Hgrid.auto_2x2 ~rows:2 ~cols:3 () in
      (Hgrid.write_system g, Hgrid_oracle.write g));
  |]

let embed_matches =
  QCheck.Test.make ~count:300 ~name:"System.embed = list oracle"
    QCheck.(
      triple seed_arb
        (int_bound (Array.length embed_bases - 1))
        (int_range 0 70))
    (fun (seed, i, extra) ->
      let base, base_oracle = embed_bases.(i) () in
      let universe = base.System.n + extra in
      let perm = Array.init universe Fun.id in
      Rng.shuffle_in_place (Rng.create (seed + 11)) perm;
      let place = Array.sub perm 0 base.System.n in
      let s = System.embed ~universe ~place base in
      agree ~n:universe
        ~oracle:
          (embed_oracle ~universe ~place ~base_n:base.System.n base_oracle)
        ~select:s.System.select seed)

(* The shard systems as Shard_router builds them: the family's base
   system over the first [used] members of each block. *)
let tri_rows m =
  let rec go r = if (r + 1) * (r + 2) / 2 <= m then go (r + 1) else r in
  go 1

let grid_dims m =
  let rows = max 1 (int_of_float (sqrt (float_of_int m))) in
  let cols = max 1 (m / rows) in
  (rows, cols)

let shard_oracles family m =
  match family with
  | Protocols.Shard_router.Majority ->
      let o = voting_oracle (majority_votes m) in
      (m, o, o)
  | Protocols.Shard_router.Htriang ->
      let t = Htriang.standard ~rows:(tri_rows m) () in
      let o = Htriang_oracle.select t in
      (t.Htriang.n, o, o)
  | Protocols.Shard_router.Hgrid ->
      let rows, cols = grid_dims m in
      let g = Hgrid.auto_2x2 ~rows ~cols () in
      (g.Hgrid.n, Hgrid_oracle.read g, Hgrid_oracle.write g)

let shard_matches =
  QCheck.Test.make ~count:200 ~name:"Shard_router shards = list oracle"
    QCheck.(
      triple seed_arb (int_bound 2) (pair (int_range 1 40) (int_range 1 6)))
    (fun (seed, f, (universe, shards)) ->
      QCheck.assume (shards <= universe);
      let family =
        match f with
        | 0 -> Protocols.Shard_router.Majority
        | 1 -> Protocols.Shard_router.Htriang
        | _ -> Protocols.Shard_router.Hgrid
      in
      let r =
        match Protocols.Shard_router.create ~family ~universe ~shards () with
        | Ok r -> r
        | Error e -> failwith e
      in
      List.for_all
        (fun shard ->
          let members = Protocols.Shard_router.members r ~shard in
          let used, read_o, write_o =
            shard_oracles family (Array.length members)
          in
          let place = Array.sub members 0 used in
          let oracle o = embed_oracle ~universe ~place ~base_n:used o in
          agree ~n:universe ~oracle:(oracle read_o)
            ~select:
              (Protocols.Shard_router.shard_read_system r ~shard).System.select
            (seed + shard)
          && agree ~n:universe ~oracle:(oracle write_o)
               ~select:
                 (Protocols.Shard_router.shard_write_system r ~shard)
                   .System.select
               (seed + shard + 100))
        (List.init shards Fun.id))

(* --- Availability --------------------------------------------------- *)

(* On 64 random live sets of one seed, [avail] agrees with the oracle
   over the live bitset and [avail_mask] with the oracle over the raw
   mask; a universe of at most 62 processes must have the mask path. *)
let avail_agree (s : System.t) (oracle : (int -> bool) -> bool) seed =
  let n = s.System.n in
  let src = Rng.create seed in
  let ok = ref true in
  for _ = 1 to 64 do
    let p = 0.3 +. (0.7 *. Rng.float src) in
    let live = Bitset.random_subset src ~n ~p in
    let expected = oracle (Hgrid_oracle.mem_of_live live) in
    if s.System.avail live <> expected then ok := false;
    match s.System.avail_mask with
    | Some f ->
        let m = Bitset.to_mask live in
        if f m <> expected || oracle (Hgrid_oracle.mem_of_mask m) <> expected
        then ok := false
    | None -> if n <= Bitset.bits_per_word then ok := false
  done;
  !ok

(* Zero votes included, and universes past 62 processes, where [avail]
   sums votes bit by bit and there is no mask path. *)
let voting_avail_matches =
  QCheck.Test.make ~count:300 ~name:"weighted voting = oracle"
    QCheck.(
      pair seed_arb (array_of_size Gen.(int_range 1 70) (int_range 0 4)))
    (fun (seed, votes) ->
      QCheck.assume (Array.exists (fun v -> v > 0) votes);
      avail_agree
        (Systems.Weighted_voting.system ~votes ())
        (voting_avail votes) seed)

let majority_avail_matches =
  QCheck.Test.make ~count:200 ~name:"majority (odd and even n) = oracle"
    QCheck.(pair seed_arb (int_range 1 30))
    (fun (seed, n) ->
      avail_agree (Systems.Majority.make n)
        (voting_avail (majority_votes n))
        seed)

let htriang_avail_matches =
  QCheck.Test.make ~count:300 ~name:"h-triang (grown and shrunk) = oracle"
    htriang_shape (fun (seed, (rows, ceil), ops) ->
      let split = if ceil then `Ceil else `Floor in
      let t =
        List.fold_left apply_rule (Htriang.standard ~split ~rows ()) ops
      in
      avail_agree (Htriang.system t)
        (fun mem -> Htriang_oracle.avail_node mem t.Htriang.root)
        seed)

(* [grid_shapes], the ledger's 4x5 and the n = 15 shapes of the
   registry, and two more nested and block shapes. *)
let avail_grid_shapes =
  Array.append grid_shapes
    [|
      Hgrid.auto_2x2 ~rows:4 ~cols:5 ();
      Hgrid.auto_2x2 ~rows:3 ~cols:5 ();
      Hgrid.auto_2x2 ~rows:5 ~cols:3 ();
      Hgrid.auto_2x2 ~ceil_first:true ~rows:7 ~cols:5 ();
      Hgrid.of_dims [ (3, 1); (1, 3); (2, 2) ];
      Hgrid.of_blocks ~row_parts:[ 2; 1; 3 ] ~col_parts:[ 3; 1 ];
    |]

let avail_grid_arb =
  QCheck.(pair seed_arb (int_bound (Array.length avail_grid_shapes - 1)))

let hgrid_avail_matches =
  QCheck.Test.make ~count:300 ~name:"h-grid read/write/rw = oracle"
    avail_grid_arb (fun (seed, i) ->
      let g = avail_grid_shapes.(i) in
      avail_agree (Hgrid.read_system g) (Hgrid_oracle.read_avail g) seed
      && avail_agree (Hgrid.write_system g) (Hgrid_oracle.write_avail g)
           (seed + 1)
      && avail_agree (Hgrid.rw_system g) (Hgrid_oracle.rw_avail g) (seed + 2))

let htgrid_avail_matches =
  QCheck.Test.make ~count:300 ~name:"h-T-grid = oracle" avail_grid_arb
    (fun (seed, i) ->
      let g = avail_grid_shapes.(i) in
      avail_agree (Htgrid.system g) (Htgrid_oracle.avail_fn g) seed)

(* Every n = 15 instantiation of the catalogue and the ledger's four
   scans: the mask and bitset paths against the family's oracle, or
   against the quorum list for the families without one here. *)
let scan_specs () =
  List.concat_map snd (Registry.instantiations ~n:15)
  @ [ "grid-rw(4x6)"; "majority(24)"; "htgrid(4x5)"; "htriang(21)" ]

let list_oracle (s : System.t) =
  let quorums =
    Array.of_list (List.map Bitset.to_mask (System.quorums_exn s))
  in
  fun mem ->
    let live = ref 0 in
    for i = 0 to s.System.n - 1 do
      if mem i then live := !live lor (1 lsl i)
    done;
    Array.exists (fun q -> q land !live = q) quorums

let scan_oracle spec (s : System.t) =
  let n = s.System.n in
  let grid d =
    Scanf.sscanf d "%dx%d" (fun rows cols -> Hgrid.auto_2x2 ~rows ~cols ())
  in
  match Registry.parse_spec spec with
  | Ok ("majority", _) -> voting_avail (majority_votes n)
  | Ok (("majority-plain" | "voting"), _) -> voting_avail (Array.make n 1)
  | Ok ("htriang", _) ->
      let t = Htriang.standard ~rows:(Systems.Triangle.rows_for n) () in
      fun mem -> Htriang_oracle.avail_node mem t.Htriang.root
  | Ok ("hgrid", [ d ]) -> Hgrid_oracle.rw_avail (grid d)
  | Ok ("hgrid-read", [ d ]) -> Hgrid_oracle.read_avail (grid d)
  | Ok ("hgrid-write", [ d ]) -> Hgrid_oracle.write_avail (grid d)
  | Ok ("htgrid", [ d ]) -> Htgrid_oracle.avail_fn (grid d)
  | _ -> list_oracle s

let test_scan_specs () =
  List.iteri
    (fun i spec ->
      let s = Registry.build_exn spec in
      if not (avail_agree s (scan_oracle spec s) (1000 + i)) then
        Alcotest.failf "%s: avail, avail_mask and oracle disagree" spec)
    (scan_specs ())

(* --- Allocation ----------------------------------------------------- *)

(* 10,000 checks over a pinned stream of 64 live sets of every density
   from 0.3 to 1.0. *)
let alloc_lives n =
  let src = Rng.create 48 in
  Array.init 64 (fun i ->
      Bitset.random_subset src ~n ~p:(0.3 +. (0.7 *. float_of_int i /. 63.0)))

let mask_words (s : System.t) =
  let f =
    match s.System.avail_mask with
    | Some f -> f
    | None -> Alcotest.failf "%s: no mask path" s.System.name
  in
  let masks = Array.map Bitset.to_mask (alloc_lives s.System.n) in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (Sys.opaque_identity (f masks.(i land 63)))
  done;
  Gc.minor_words () -. w0

let live_words (s : System.t) =
  let lives = alloc_lives s.System.n in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (Sys.opaque_identity (s.System.avail lives.(i land 63)))
  done;
  Gc.minor_words () -. w0

let test_mask_alloc () =
  List.iter
    (fun spec ->
      let s = Registry.build_exn spec in
      Alcotest.(check (float 0.0)) (spec ^ " avail_mask") 0.0 (mask_words s))
    (scan_specs ())

(* The four families the simulator runs, in the shapes it runs them
   (the store's shard h-grids included) and past the mask path's 62
   processes. *)
let test_live_alloc () =
  let grown =
    List.fold_left apply_rule (Htriang.standard ~rows:5 ()) [ 0; 2; 1; 5 ]
  in
  List.iter
    (fun (s : System.t) ->
      Alcotest.(check (float 0.0)) (s.System.name ^ " avail") 0.0 (live_words s))
    [
      Systems.Majority.make 15;
      Systems.Majority.make 24;
      Systems.Majority.make 70;
      Systems.Weighted_voting.system ~votes:[| 1; 0; 2; 3; 1; 1; 4 |] ();
      Hgrid.rw_system (Hgrid.auto_2x2 ~rows:4 ~cols:4 ());
      Hgrid.read_system (Hgrid.auto_2x2 ~rows:2 ~cols:2 ());
      Hgrid.write_system (Hgrid.auto_2x2 ~rows:2 ~cols:2 ());
      Hgrid.rw_system (Hgrid.flat ~rows:2 ~cols:17);
      Htgrid.system (Hgrid.auto_2x2 ~rows:4 ~cols:4 ());
      Htgrid.system (Hgrid.auto_2x2 ~rows:4 ~cols:5 ());
      Htgrid.system (Hgrid.of_blocks ~row_parts:[ 1; 2; 2 ] ~col_parts:[ 1; 2; 2 ]);
      Htriang.system (Htriang.standard ~rows:5 ());
      Htriang.system (Htriang.standard ~rows:6 ());
      Htriang.system grown;
    ]

(* Every other family, on both paths: each catalogue example and n = 15
   instantiation (the grids, the wall family, Y, hqs, tree, fpp,
   singleton, thresholds), whose bitset check runs its mask kernel up
   to 62 processes, and the mask checks that used to build closures:
   Paths' crossing search and the copy scans of [K_coterie.copies] and
   [Masking.boost].  One check of each path runs first, so that the
   domain's Paths scratch exists before counting. *)
let test_catalogue_alloc () =
  let base = Systems.Majority.make 5 in
  List.iter
    (fun (s : System.t) ->
      ignore (s.System.avail (Bitset.create s.System.n));
      Option.iter (fun f -> ignore (f 0)) s.System.avail_mask;
      Alcotest.(check (float 0.0))
        (s.System.name ^ " avail") 0.0 (live_words s);
      Alcotest.(check (float 0.0))
        (s.System.name ^ " avail_mask") 0.0 (mask_words s))
    (List.map Registry.build_exn
       (List.map (fun (e : Registry.entry) -> e.example) Registry.catalogue
       @ List.concat_map snd (Registry.instantiations ~n:15)
       @ [ "paths(2)"; "paths(3)"; "paths(5)" ])
    @ [
        Systems.K_coterie.copies ~k:2 base;
        Systems.K_coterie.copies ~k:3
          (Htriang.system (Htriang.standard ~rows:3 ()));
        Byzantine.Masking.boost ~k:2 base;
        Byzantine.Masking.boost ~k:3
          (Systems.Grid.system ~rows:2 ~cols:2 Systems.Grid.Read_write);
      ])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "select"
    [
      ( "oracles",
        List.map qc
          [
            voting_matches;
            majority_matches;
            htriang_matches;
            hgrid_matches;
            htgrid_matches;
            embed_matches;
            shard_matches;
          ] );
      ("complete", [ qc select_is_complete ]);
      ( "avail",
        List.map qc
          [
            voting_avail_matches;
            majority_avail_matches;
            htriang_avail_matches;
            hgrid_avail_matches;
            htgrid_avail_matches;
          ]
        @ [ Alcotest.test_case "n = 15 and ledger scans" `Quick test_scan_specs ]
      );
      ( "alloc",
        [
          Alcotest.test_case "avail_mask: 0 words" `Quick test_mask_alloc;
          Alcotest.test_case "avail: 0 words" `Quick test_live_alloc;
          Alcotest.test_case "catalogue, copies, boost: 0 words" `Quick
            test_catalogue_alloc;
        ] );
    ]
