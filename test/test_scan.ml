(* The monotone subcube walk against the one-set-at-a-time scans it
   replaced, kept here verbatim as oracles: the exact failure
   polynomial ([Failure.exact_poly]) and the minimal-quorum
   enumeration ([Coterie.minimal_of_avail]).  The walk is only right
   for monotone predicates, so every catalogue [avail_mask] is checked
   to be monotone too.  The availability counts that weighted voting,
   grid, h-grid, h-T-grid, h-triang, HQS, the tree protocol, walls,
   thresholds and the singleton derive from their structure (and
   [exact_poly] uses instead of the walk) are checked against both,
   weighted voting's direct quorum enumeration against
   [minimal_of_avail], and [Coterie.minimize]'s mask loop against the
   list loop it runs beside. *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Coterie = Quorum.Coterie
module Failure_poly = Quorum.Failure_poly
module Rng = Quorum.Rng
module Registry = Core.Registry

(* --- Oracles: the scans before the walk ----------------------------- *)

let count_fails ~n avail ~lo ~hi =
  let counts = Array.make (n + 1) 0.0 in
  for live = lo to hi - 1 do
    if not (avail live) then begin
      let k = Bitset.popcount live in
      counts.(k) <- counts.(k) +. 1.0
    end
  done;
  counts

let rec minimal avail_mask n mask b =
  if b = n then true
  else if mask land (1 lsl b) <> 0 && avail_mask (mask lxor (1 lsl b)) then
    false
  else minimal avail_mask n mask (b + 1)

let old_minimal_of_avail ~n avail_mask =
  let result = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    if avail_mask mask && minimal avail_mask n mask 0 then
      result := Bitset.of_mask ~n mask :: !result
  done;
  List.rev !result

(* [Coterie.all_intersect] and [is_antichain] before their mask
   loops. *)
let old_all_intersect quorums =
  let rec loop = function
    | [] -> true
    | q :: rest ->
        List.for_all (fun r -> Bitset.intersects q r) rest && loop rest
  in
  loop quorums

let old_is_antichain quorums =
  let rec loop = function
    | [] -> true
    | q :: rest ->
        List.for_all
          (fun r -> (not (Bitset.subset q r)) && not (Bitset.subset r q))
          rest
        && loop rest
  in
  loop quorums

(* [Coterie.minimize] before its mask loop. *)
let old_minimize quorums =
  let rec loop kept = function
    | [] -> List.rev kept
    | q :: rest ->
        let dominated_by r = Bitset.subset r q in
        if List.exists dominated_by kept || List.exists dominated_by rest
        then loop kept rest
        else loop (q :: kept) rest
  in
  let dedup =
    List.fold_left
      (fun acc q ->
        if List.exists (Bitset.equal q) acc then acc else q :: acc)
      [] quorums
    |> List.rev
  in
  loop [] dedup

(* --- Systems -------------------------------------------------------- *)

let instantiations ~upto =
  List.concat_map
    (fun n -> List.concat_map snd (Registry.instantiations ~n))
    (List.init upto (fun i -> i + 1))

let pools =
  lazy (List.map (fun jobs -> Exec.Pool.create ~jobs ()) [ 1; 2; 4 ])

(* Random weighted voting, zero votes included. *)
let voting_arb ~max_n =
  QCheck.(array_of_size Gen.(int_range 1 max_n) (int_range 0 4))

let voting votes =
  QCheck.assume (Array.exists (fun v -> v > 0) votes);
  Systems.Weighted_voting.system ~votes ()

(* Random explicit systems over [n] processes: [k] random quorums of
   density [d] / 8.  [k = 0] never is available; density 0 gives the
   empty quorum, always available. *)
let quorums_arb ~max_n =
  QCheck.(
    quad (int_range 1 max_n) (int_range 0 6) (int_range 0 8) (int_bound 10_000))

let of_quorums (n, k, d, seed) =
  let rng = Rng.create seed in
  let p = float_of_int d /. 8.0 in
  System.of_quorums ~name:"random" ~n
    (List.init k (fun _ -> Bitset.random_subset rng ~n ~p))

(* --- Exact failure polynomial -------------------------------------- *)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [exact_poly] sequential and on pools of 1, 2 and 4 domains, bit for
   bit against the old loop. *)
let exact_matches (s : System.t) =
  let n = s.System.n in
  let oracle = count_fails ~n (System.avail_mask_exn s) ~lo:0 ~hi:(1 lsl n) in
  let agrees poly =
    Failure_poly.n poly = n
    && List.for_all
         (fun k -> same_float (Failure_poly.fail_count poly k) oracle.(k))
         (List.init (n + 1) Fun.id)
  in
  agrees (Analysis.Failure.exact_poly s)
  && List.for_all
       (fun pool -> agrees (Analysis.Failure.exact_poly ~pool s))
       (Lazy.force pools)

let test_exact_catalogue () =
  List.iter
    (fun spec ->
      if not (exact_matches (Registry.build_exn spec)) then
        Alcotest.failf "%s: exact_poly differs from the set-by-set scan" spec)
    (instantiations ~upto:16)

let exact_voting =
  QCheck.Test.make ~count:200 ~name:"exact_poly = scan: weighted voting"
    (voting_arb ~max_n:18) (fun votes -> exact_matches (voting votes))

let exact_of_quorums =
  QCheck.Test.make ~count:300 ~name:"exact_poly = scan: of_quorums"
    (quorums_arb ~max_n:17) (fun q -> exact_matches (of_quorums q))

(* --- Availability counts ------------------------------------------- *)

let walked (s : System.t) = { s with System.avail_counts = None }

(* [avail_counts] turned into fail counts, [exact_poly] on the system
   and the walk without the counts agree bit for bit, and with the
   set-by-set scan when [scan]. *)
let counts_agree ?(scan = true) (s : System.t) =
  let n = s.System.n in
  let fails poly = Array.init (n + 1) (Failure_poly.fail_count poly) in
  let same a b = Array.for_all2 same_float a b in
  match s.System.avail_counts with
  | None -> false
  | Some counts ->
      let counted =
        Array.mapi
          (fun k a -> Failure_poly.binomial n k -. float_of_int a)
          (counts ())
      in
      let walk = fails (Analysis.Failure.exact_poly (walked s)) in
      same counted walk
      && same (fails (Analysis.Failure.exact_poly s)) walk
      && ((not scan)
         || same walk
              (count_fails ~n (System.avail_mask_exn s) ~lo:0 ~hi:(1 lsl n)))

let check_counts ?scan (s : System.t) =
  if not (counts_agree ?scan s) then
    Alcotest.failf "%s: avail_counts differ from the walk or the scan"
      s.System.name

(* The set-by-set scan up to this many processes, as in the "exact"
   group; beyond, the walk alone (which that group checks against the
   scan), since 2^20 sets of ~750 h-grid systems take ~15 s. *)
let scan_max = 16

let check_all systems =
  List.iter
    (fun (s : System.t) -> check_counts ~scan:(s.System.n <= scan_max) s)
    systems

(* Voting is counted while the DP's table, (n + 1) x (total / 2 + 2),
   fits in 2^min(n, 20) entries; the rest walk. *)
let counts_voting =
  QCheck.Test.make ~count:200 ~name:"avail_counts = walk = scan: voting"
    (voting_arb ~max_n:18) (fun votes ->
      let s = voting votes in
      let n = Array.length votes in
      let total = Array.fold_left ( + ) 0 votes in
      if (n + 1) * ((total / 2) + 2) <= 1 lsl min n 20 then counts_agree s
      else Option.is_none s.System.avail_counts && exact_matches s)

(* A few huge votes would make the DP's table huge (here 4 * 5 * 10^8
   entries): such a system has no counts and walks its live sets. *)
let test_counts_huge_vote () =
  List.iter
    (fun votes ->
      let s = Systems.Weighted_voting.system ~votes () in
      if Option.is_some s.System.avail_counts then
        Alcotest.failf "%s: counted despite its votes" s.System.name;
      if not (exact_matches s) then
        Alcotest.failf "%s: exact_poly differs from the scan" s.System.name)
    [
      [| 1_000_000_000; 1; 1 |];
      Array.init 12 (fun i -> if i = 0 then 1_000_000 else 1);
    ]

(* Every [rows x cols] with at most [cells] cells. *)
let dims ~cells =
  List.concat_map
    (fun r -> List.init (cells / r) (fun c -> (r, c + 1)))
    (List.init cells (fun r -> r + 1))

let test_counts_grid () =
  check_all
    (List.concat_map
       (fun (rows, cols) ->
         List.map
           (Systems.Grid.system ~rows ~cols)
           Systems.Grid.[ Read; Write; Read_write ])
       (dims ~cells:20))

(* Every constructor's shapes, up to 20 cells: flat, uniform
   multi-level, non-uniform blocks, the Table 1 halving (both ways)
   and nested 2x2 levels. *)
let hgrid_shapes () =
  let open Core.Hgrid in
  let by_dims ?(single = true) f =
    List.filter_map
      (fun (rows, cols) ->
        if single || rows * cols > 1 then Some (f ~rows ~cols) else None)
      (dims ~cells:20)
  in
  List.sort_uniq compare
    (by_dims flat
    @ by_dims (fun ~rows ~cols -> auto_2x2 ~rows ~cols ())
    @ by_dims (fun ~rows ~cols -> auto_2x2 ~ceil_first:true ~rows ~cols ())
    @ by_dims ~single:false preferred_2x2
    @ List.map of_dims
        [
          [ (2, 2); (2, 2) ];
          [ (2, 1); (2, 2) ];
          [ (1, 2); (3, 3) ];
          [ (3, 1); (2, 1); (1, 3) ];
          [ (2, 2); (1, 2); (2, 1) ];
          [ (5, 1); (1, 4) ];
        ]
    @ List.map
        (fun (row_parts, col_parts) -> of_blocks ~row_parts ~col_parts)
        [
          ([ 1; 2 ], [ 2; 1 ]);
          ([ 1; 2; 2 ], [ 1; 2 ]);
          ([ 2; 2 ], [ 1; 2; 2 ]);
          ([ 1; 3 ], [ 2; 2 ]);
          ([ 3; 1 ], [ 1; 1; 1 ]);
          ([ 1; 1; 1; 2 ], [ 3 ]);
        ])

let test_counts_hgrid () =
  check_all
    (List.concat_map
       (fun t ->
         Core.
           [
             Hgrid.read_system t;
             Hgrid.write_system t;
             Hgrid.rw_system t;
             Htgrid.system t;
           ])
       (hgrid_shapes ()))

(* Standard triangles of 1 to 6 rows, both splits, each rule of growth
   and of shrinking applied once where it applies (up to 22 processes:
   the walk of the 28-process square growth of 6 rows takes 18 s), and
   a triangle grown twice then shrunk. *)
let htriang_rules =
  Core.Htriang.
    [|
      grow_unit_triangle;
      grow_unit_grid;
      grow_square_grid;
      shrink_unit_triangle;
      shrink_unit_grid;
      shrink_square_grid;
    |]

let test_counts_htriang () =
  let open Core.Htriang in
  let rules = Array.to_list htriang_rules in
  let triangles =
    List.concat_map
      (fun rows ->
        List.concat_map
          (fun split ->
            let t = standard ~split ~rows () in
            t
            :: List.filter
                 (fun (r : t) -> r.n <= 22)
                 (List.filter_map (fun rule -> rule t) rules))
          [ `Floor; `Ceil ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let reshaped =
    Option.bind
      (Option.bind (grow_unit_triangle (standard ~rows:4 ())) grow_square_grid)
      shrink_unit_grid
  in
  check_all
    (List.map system (Option.to_list reshaped @ triangles))

(* Triangles of 1-5 rows reshaped by a random sequence of the six
   rules, a step being skipped where its rule does not apply or would
   pass 20 processes. *)
let counts_htriang_random =
  QCheck.Test.make ~count:200
    ~name:"avail_counts = walk = scan: reshaped h-triang"
    QCheck.(
      triple (int_range 1 5) bool
        (list_of_size Gen.(int_range 1 5) (int_bound 5)))
    (fun (rows, ceil, steps) ->
      let split = if ceil then `Ceil else `Floor in
      let t =
        List.fold_left
          (fun t step ->
            match htriang_rules.(step) t with
            | Some (t' : Core.Htriang.t) when t'.n <= 20 -> t'
            | _ -> t)
          (Core.Htriang.standard ~split ~rows ())
          steps
      in
      counts_agree ~scan:(t.n <= scan_max) (Core.Htriang.system t))

(* Random block hierarchies (row parts summing to at most 4, column
   parts to at most 5) and random uniform multi-level ones (at most 20
   processes): all four systems of each. *)
type hgrid_spec = Blocks of int list * int list | Levels of (int * int) list

(* The longest prefix of [l] whose running [op] of [size]s, from
   [start], stays at most [max]: never empty when every first element
   fits, as it does in each generator below. *)
let fit ~max ~start ~size ~op l =
  let rec go acc = function
    | x :: rest when op acc (size x) <= max -> x :: go (op acc (size x)) rest
    | _ -> []
  in
  go start l

let hgrid_spec_arb =
  let open QCheck.Gen in
  let parts max =
    list_size (int_range 1 4) (int_range 1 3)
    >|= fit ~max ~start:0 ~size:Fun.id ~op:( + )
  in
  let levels =
    list_size (int_range 1 3) (pair (int_range 1 3) (int_range 1 3))
    >|= fit ~max:20 ~start:1 ~size:(fun (m, n) -> m * n) ~op:( * )
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  QCheck.make
    ~print:(function
      | Blocks (r, c) -> Printf.sprintf "of_blocks [%s] [%s]" (ints r) (ints c)
      | Levels d ->
          "of_dims "
          ^ String.concat ";"
              (List.map (fun (m, n) -> Printf.sprintf "%dx%d" m n) d))
    (oneof
       [
         map2 (fun r c -> Blocks (r, c)) (parts 4) (parts 5);
         map (fun d -> Levels d) levels;
       ])

let counts_hgrid_random =
  QCheck.Test.make ~count:100
    ~name:"avail_counts = walk = scan: random h-grid shapes" hgrid_spec_arb
    (fun spec ->
      let t =
        match spec with
        | Blocks (row_parts, col_parts) ->
            Core.Hgrid.of_blocks ~row_parts ~col_parts
        | Levels dims -> Core.Hgrid.of_dims dims
      in
      List.for_all
        (counts_agree ~scan:(t.n <= scan_max))
        Core.
          [
            Hgrid.read_system t;
            Hgrid.write_system t;
            Hgrid.rw_system t;
            Htgrid.system t;
          ])

(* The ledger's four scans at full size, against the walk. *)
let test_counts_ledger () =
  List.iter
    (fun spec -> check_counts ~scan:false (Registry.build_exn spec))
    [ "majority(24)"; "grid-rw(4x6)"; "htgrid(4x5)"; "htriang(21)" ]

let test_rename_embed () =
  let s = Registry.build_exn "htriang(10)" in
  let counts (s : System.t) =
    Option.map (fun f -> f ()) s.System.avail_counts
  in
  Alcotest.(check (option (array int)))
    "rename keeps the counts" (counts s)
    (counts (System.rename s "renamed"));
  Alcotest.(check bool)
    "embed drops them" true
    (Option.is_none
       (System.embed ~universe:12 ~place:(Array.init 10 Fun.id) s)
         .System.avail_counts);
  (* The same for weighted voting's quorum masks. *)
  let v = Registry.build_exn "majority(7)" in
  let masks (s : System.t) = Option.map (fun f -> f ()) s.System.min_masks in
  Alcotest.(check (option (array int)))
    "rename keeps the masks" (masks v)
    (masks (System.rename v "renamed"));
  Alcotest.(check bool)
    "embed drops them" true
    (Option.is_none
       (System.embed ~universe:9 ~place:(Array.init 7 Fun.id) v)
         .System.min_masks)

(* HQS trees of 1-4 levels of 1-5 children, at most 20 leaves. *)
let counts_hqs =
  QCheck.Test.make ~count:200 ~name:"avail_counts = walk = scan: hqs"
    QCheck.(
      make
        ~print:(fun b -> String.concat "-" (List.map string_of_int b))
        Gen.(
          list_size (int_range 1 4) (int_range 1 5)
          >|= fit ~max:20 ~start:1 ~size:Fun.id ~op:( * )))
    (fun branching ->
      let s = Systems.Hqs.system ~branching () in
      counts_agree ~scan:(s.System.n <= scan_max) s)

let test_counts_tree () =
  check_all
    (List.map
       (fun height -> Systems.Tree_quorum.system ~height ())
       [ 1; 2; 3; 4 ])

(* The wall families at every size up to 20 processes: triangles,
   CWlog, diamonds and flat T-grids, plus a few hand-made walls. *)
let test_counts_wall_families () =
  check_all
    (List.map (fun rows -> Systems.Triangle.system ~rows ()) [ 1; 2; 3; 4; 5 ]
    @ List.init 20 (fun i -> Systems.Cwlog.system ~n:(i + 1) ())
    @ List.map
        (fun half_rows -> Systems.Diamond.system ~half_rows ())
        [ 2; 3; 4 ]
    @ List.map
        (fun (rows, cols) -> Systems.Grid.t_grid ~rows ~cols ())
        (dims ~cells:20)
    @ List.map Systems.Wall.system
        [ [| 1; 2; 2; 3 |]; [| 2; 1; 4; 2 |]; [| 5 |]; [| 1; 1; 1 |] ])

(* Walls of 1-8 rows of 1-5 elements, at most 20 processes. *)
let counts_wall_random =
  QCheck.Test.make ~count:200 ~name:"avail_counts = walk = scan: random walls"
    QCheck.(
      make
        ~print:(fun w ->
          String.concat "-" (Array.to_list (Array.map string_of_int w)))
        Gen.(
          list_size (int_range 1 8) (int_range 1 5)
          >|= fun l ->
          Array.of_list (fit ~max:20 ~start:0 ~size:Fun.id ~op:( + ) l)))
    (fun widths ->
      let s = Systems.Wall.system widths in
      counts_agree ~scan:(s.System.n <= scan_max) s)

let test_counts_thresh () =
  check_all
    (List.concat_map
       (fun n -> List.init n (fun i -> Systems.Thresh.system ~n ~r:(i + 1) ()))
       (List.init 20 (fun i -> i + 1)))

let test_counts_singleton () =
  check_all (List.init 20 (fun i -> Systems.Singleton.make (i + 1)))

(* Every family an optimizer sweep instantiates counts its live sets,
   except Y, Paths and FPP, whose availability is not built from parts
   that share no process: their exact polynomials walk. *)
let walking_families = [ "y"; "paths"; "fpp" ]

let sweep_specs ~n =
  List.sort_uniq compare
    (List.concat_map
       (fun (c : Analysis.Optimizer.candidate) -> [ c.read_spec; c.write_spec ])
       (Analysis.Optimizer.candidates ~n))

let walks spec =
  match Registry.parse_spec spec with
  | Ok (family, _) -> List.mem family walking_families
  | Error msg -> Alcotest.fail msg

let test_sweep_families_counted () =
  List.iter
    (fun n ->
      List.iter
        (fun spec ->
          if
            (not (walks spec))
            && Option.is_none (Registry.build_exn spec).System.avail_counts
          then Alcotest.failf "%s: no availability counts" spec)
        (sweep_specs ~n))
    [ 9; 12; 13; 15; 16; 20; 21; 24 ]

(* At n = 15, [exact_poly] makes no availability check on any sweep
   candidate but y(15): a counting [avail_mask] sees no call. *)
let test_sweep_checks_nothing () =
  List.iter
    (fun spec ->
      let s = Registry.build_exn spec in
      let calls = ref 0 in
      let avail = System.avail_mask_exn s in
      let counted =
        {
          s with
          System.avail_mask =
            Some
              (fun mask ->
                incr calls;
                avail mask);
        }
      in
      ignore (Analysis.Failure.exact_poly counted : Failure_poly.t);
      if walks spec <> (!calls > 0) then
        Alcotest.failf "%s: %d availability checks" spec !calls)
    (sweep_specs ~n:15)

(* --- Minimal quorums ------------------------------------------------ *)

let same_list a b =
  List.length a = List.length b && List.for_all2 Bitset.equal a b

let minimal_matches ~n avail_mask =
  same_list
    (Coterie.minimal_of_avail ~n avail_mask)
    (old_minimal_of_avail ~n avail_mask)

let test_minimal_catalogue () =
  List.iter
    (fun spec ->
      let s = Registry.build_exn spec in
      if not (minimal_matches ~n:s.System.n (System.avail_mask_exn s)) then
        Alcotest.failf "%s: minimal_of_avail differs from the old scan" spec)
    (instantiations ~upto:14)

let minimal_voting =
  QCheck.Test.make ~count:200 ~name:"minimal_of_avail = scan: voting"
    (voting_arb ~max_n:14) (fun votes ->
      let s = voting votes in
      minimal_matches ~n:s.System.n (Option.get s.System.avail_mask))

let minimal_of_quorums =
  QCheck.Test.make ~count:300 ~name:"minimal_of_avail = scan: of_quorums"
    (quorums_arb ~max_n:14) (fun q ->
      let s = of_quorums q in
      minimal_matches ~n:s.System.n (Option.get s.System.avail_mask))

(* Weighted voting lists its minimal quorums by a pass over the votes,
   not by [minimal_of_avail]: the same list in the same order (the
   load LP's column order), and the same masks in [min_masks], on up
   to 16 processes with zero votes and, in about a third of the cases,
   one huge vote. *)
let voting_quorums =
  QCheck.Test.make ~count:300
    ~name:"weighted voting quorums = minimal_of_avail"
    QCheck.(pair (voting_arb ~max_n:16) (int_bound 47))
    (fun (votes, huge) ->
      let n = Array.length votes in
      let votes =
        if huge mod 3 <> 0 then votes
        else
          Array.mapi
            (fun i v -> if i = huge / 3 mod n then 1_000_000 else v)
            votes
      in
      let s = voting votes in
      let quorums = System.quorums_exn s in
      same_list quorums
        (Coterie.minimal_of_avail ~n (Option.get s.System.avail_mask))
      && Array.to_list (Option.get s.System.min_masks ())
         = List.map Bitset.to_mask quorums)

(* --- Minimize -------------------------------------------------------- *)

(* Random quorum lists over 1-70 processes (the mask loops run up to
   62, the list loops beyond): [k] random quorums, each followed in
   turn by a duplicate, a superset or nothing, the whole shuffled. *)
let quorum_list_arb =
  QCheck.(triple (int_range 1 70) (int_range 0 12) (int_bound 100_000))

let quorum_list (n, k, seed) =
  let rng = Rng.create seed in
  let base =
    List.init k (fun _ -> Bitset.random_subset rng ~n ~p:(Rng.float rng))
  in
  let grown q =
    match Rng.int rng 3 with
    | 0 -> [ q; Bitset.copy q ]
    | 1 -> [ q; Bitset.union q (Bitset.random_subset rng ~n ~p:0.3) ]
    | _ -> [ q ]
  in
  let quorums = Array.of_list (List.concat_map grown base) in
  Rng.shuffle_in_place rng quorums;
  Array.to_list quorums

(* The same occurrences must be kept, in the same order. *)
let minimize_mask_loop =
  QCheck.Test.make ~count:500 ~name:"minimize = list loop" quorum_list_arb
    (fun spec ->
      let quorums = quorum_list spec in
      let kept = Coterie.minimize quorums and oracle = old_minimize quorums in
      List.length kept = List.length oracle && List.for_all2 ( == ) kept oracle)

(* Also on the minimized lists, which are antichains and, at high
   density, often intersecting. *)
let pair_checks_mask_loop =
  QCheck.Test.make ~count:500 ~name:"all_intersect, is_antichain = list loops"
    quorum_list_arb (fun spec ->
      List.for_all
        (fun quorums ->
          Coterie.all_intersect quorums = old_all_intersect quorums
          && Coterie.is_antichain quorums = old_is_antichain quorums)
        (let quorums = quorum_list spec in
         [ quorums; old_minimize quorums ]))

(* --- Monotonicity --------------------------------------------------- *)

(* Adding a live process never makes an available set unavailable. *)
let monotone ~n avail =
  let ok = ref true in
  for live = 0 to (1 lsl n) - 1 do
    if avail live then
      for b = 0 to n - 1 do
        if live land (1 lsl b) = 0 && not (avail (live lor (1 lsl b))) then
          ok := false
      done
  done;
  !ok

let test_monotone () =
  List.iter
    (fun spec ->
      let s = Registry.build_exn spec in
      if not (monotone ~n:s.System.n (System.avail_mask_exn s)) then
        Alcotest.failf "%s: avail_mask is not monotone" spec)
    (instantiations ~upto:12)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "scan"
    [
      ( "exact",
        Alcotest.test_case "catalogue n <= 16 = scan" `Quick
          test_exact_catalogue
        :: List.map qc [ exact_voting; exact_of_quorums ] );
      ( "minimal",
        Alcotest.test_case "catalogue n <= 14 = scan" `Quick
          test_minimal_catalogue
        :: List.map qc [ minimal_voting; minimal_of_quorums; voting_quorums ] );
      ( "monotone",
        [ Alcotest.test_case "catalogue n <= 12" `Quick test_monotone ] );
      ( "counts",
        [
          qc counts_voting;
          Alcotest.test_case "huge votes walk" `Quick test_counts_huge_vote;
          Alcotest.test_case "grid read/write/rw, <= 20 cells" `Quick
            test_counts_grid;
          Alcotest.test_case "h-grid and h-T-grid shapes, <= 20 cells" `Quick
            test_counts_hgrid;
          qc counts_hgrid_random;
          Alcotest.test_case "h-triang 1-6 rows, grown and shrunk" `Quick
            test_counts_htriang;
          qc counts_htriang_random;
          Alcotest.test_case "ledger scans at full size = walk" `Quick
            test_counts_ledger;
          Alcotest.test_case "rename keeps, embed drops" `Quick
            test_rename_embed;
          qc counts_hqs;
          Alcotest.test_case "tree heights 1-4" `Quick test_counts_tree;
          Alcotest.test_case "triangle, cwlog, diamond, tgrid, walls" `Quick
            test_counts_wall_families;
          qc counts_wall_random;
          Alcotest.test_case "every thresh(n-r), n <= 20" `Quick
            test_counts_thresh;
          Alcotest.test_case "singleton(n), n <= 20" `Quick
            test_counts_singleton;
          Alcotest.test_case "sweep families counted but y, paths, fpp" `Quick
            test_sweep_families_counted;
          Alcotest.test_case "n = 15 sweep: no check but y(15)" `Quick
            test_sweep_checks_nothing;
        ] );
      ("minimize", [ qc minimize_mask_loop; qc pair_checks_mask_loop ]);
    ]
