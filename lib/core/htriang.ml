module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng
module Combinat = Quorum.Combinat
module Int_poly = Quorum.Int_poly

type node =
  | Elem of int
  | Split of { t1 : node; grid : int array array; t2 : node }

type t = { root : node; n : int; rows : int }

(* Build from explicit rows of ids; the recursive split of section 5.
   [t1_rows j] gives the number of top rows forming sub-triangle 1
   (the paper uses floor(j/2)). *)
let rec build ~t1_rows rows =
  let build = build ~t1_rows in
  match Array.length rows with
  | 0 -> invalid_arg "Htriang.build: empty"
  | 1 ->
      (match rows.(0) with
      | [| e |] -> Elem e
      | _ -> invalid_arg "Htriang.build: malformed triangle")
  | j ->
      let half = t1_rows j in
      if half < 1 || half >= j then invalid_arg "Htriang.build: bad split";
      let t1 = build (Array.sub rows 0 half) in
      let lower = Array.sub rows half (j - half) in
      let grid = Array.map (fun row -> Array.sub row 0 half) lower in
      let t2 =
        build
          (Array.map
             (fun row -> Array.sub row half (Array.length row - half))
             lower)
      in
      Split { t1; grid; t2 }

let standard ?(split = `Floor) ~rows () =
  if rows < 1 then invalid_arg "Htriang.standard: rows >= 1 required";
  let t1_rows j = match split with `Floor -> j / 2 | `Ceil -> (j + 1) / 2 in
  let ids =
    Array.init rows (fun r ->
        Array.init (r + 1) (fun c -> (r * (r + 1) / 2) + c))
  in
  { root = build ~t1_rows ids; n = rows * (rows + 1) / 2; rows }

(* --- Quorum enumeration ------------------------------------------ *)

let grid_covers grid =
  Array.to_list grid
  |> List.map Array.to_list
  |> Combinat.product

let grid_lines grid = Array.to_list grid |> List.map Array.to_list

let rec node_quorums = function
  | Elem e -> [ [ e ] ]
  | Split { t1; grid; t2 } ->
      let q1 = node_quorums t1 and q2 = node_quorums t2 in
      let pairs a b = List.concat_map (fun x -> List.map (fun y -> x @ y) b) a in
      pairs q1 q2 @ pairs q1 (grid_covers grid) @ pairs q2 (grid_lines grid)

let quorums t = List.map (Bitset.of_list t.n) (node_quorums t.root)

(* --- Exact failure probability ----------------------------------- *)

let rec avail_prob p_of = function
  | Elem e -> 1.0 -. p_of e
  | Split { t1; grid; t2 } ->
      let a = avail_prob p_of t1 and b = avail_prob p_of t2 in
      (* Row-cover: every grid row has a survivor; full-line: some row
         fully survives.  Rows are disjoint, hence independent. *)
      let r = ref 1.0 and no_full = ref 1.0 in
      Array.iter
        (fun row ->
          let all_dead = ref 1.0 and all_live = ref 1.0 in
          Array.iter
            (fun e ->
              let pe = p_of e in
              all_dead := !all_dead *. pe;
              all_live := !all_live *. (1.0 -. pe))
            row;
          r := !r *. (1.0 -. !all_dead);
          no_full := !no_full *. (1.0 -. !all_live))
        grid;
      let r = !r and f = 1.0 -. !no_full in
      (a *. b) +. (a *. r) +. (b *. f) -. (a *. b *. r) -. (a *. b *. f)

let failure_probability_hetero t ~p_of = 1.0 -. avail_prob p_of t.root
let failure_probability t ~p = failure_probability_hetero t ~p_of:(fun _ -> p)

(* --- Strategy ----------------------------------------------------- *)

type weights = { w1 : float; w2 : float; w3 : float; k : float }

let split_weights ~c1 ~c2 ~c3 ~q1 ~q2 ~q3l ~q3r =
  let alpha = float_of_int c1 /. float_of_int q1 in
  let beta = float_of_int c2 /. float_of_int q2 in
  let q3l = float_of_int q3l and q3r = float_of_int q3r in
  let k =
    (q3r +. q3l) /. (float_of_int c3 +. (q3r *. beta) +. (q3l *. alpha))
  in
  {
    w1 = ((alpha +. beta) *. k) -. 1.0;
    w2 = 1.0 -. (beta *. k);
    w3 = 1.0 -. (alpha *. k);
    k;
  }

let rec node_size = function
  | Elem _ -> 1
  | Split { t1; grid; t2 } ->
      node_size t1 + node_size t2
      + Array.fold_left (fun acc row -> acc + Array.length row) 0 grid

(* Quorum cardinality along the method-2 shape (quorum of T1 plus a
   grid row-cover).  On standard triangles every method gives the same
   size, so this is exact there; after growth it is the proxy used for
   strategy weights. *)
let rec quorum_size = function
  | Elem _ -> 1
  | Split { t1; grid; _ } -> quorum_size t1 + Array.length grid

let weights_of_split t1 grid t2 =
  let c1 = node_size t1 and c2 = node_size t2 in
  let c3 = Array.fold_left (fun acc row -> acc + Array.length row) 0 grid in
  split_weights ~c1 ~c2 ~c3 ~q1:(quorum_size t1) ~q2:(quorum_size t2)
    ~q3l:(Array.length grid.(0))
    ~q3r:(Array.length grid)

let strategy_loads t =
  let loads = Array.make t.n 0.0 in
  let rec add node w =
    match node with
    | Elem e -> loads.(e) <- loads.(e) +. w
    | Split { t1; grid; t2 } ->
        let { w1; w2; w3; k = _ } = weights_of_split t1 grid t2 in
        add t1 (w *. (w1 +. w2));
        add t2 (w *. (w1 +. w3));
        let rows = float_of_int (Array.length grid) in
        let cols = float_of_int (Array.length grid.(0)) in
        Array.iter
          (fun row ->
            Array.iter
              (fun e ->
                loads.(e) <-
                  loads.(e) +. (w *. ((w2 /. cols) +. (w3 /. rows))))
              row)
          grid
  in
  add t.root 1.0;
  loads

let system_load t =
  match t.root with
  | Elem _ -> 1.0
  | Split { t1; grid; t2 } -> (weights_of_split t1 grid t2).k

(* --- Live-aware selection ---------------------------------------- *)

(* The selector writes straight into the one bitset it returns; its
   draws are pinned against a reference strategy in
   test/test_select.ml.  Its feasibility checks are [avail]'s, so a
   selection allocates only its result. *)

let count_live live row =
  let c = ref 0 in
  for i = 0 to Array.length row - 1 do
    if Bitset.mem live row.(i) then incr c
  done;
  !c

let[@inline] row_full live row = count_live live row = Array.length row

let count_full live grid =
  let c = ref 0 in
  for i = 0 to Array.length grid - 1 do
    if row_full live grid.(i) then incr c
  done;
  !c

(* --- Availability ------------------------------------------------ *)

(* A triangle is live when T1 and T2 are, T1 and a row-cover of its
   sub-grid, or T2 and a full-line of it.  Two closure-free copies of
   that check: [node_live] over the live bitset (it serves [avail] and
   the selector) and [node_live_mask] over a raw mask (the 2^n
   scans). *)

let rec row_some_live live row j =
  j < Array.length row
  && (Bitset.mem live row.(j) || row_some_live live row (j + 1))

let rec rows_covered live grid i =
  i = Array.length grid
  || (row_some_live live grid.(i) 0 && rows_covered live grid (i + 1))

let rec row_all_live live row j =
  j = Array.length row
  || (Bitset.mem live row.(j) && row_all_live live row (j + 1))

let rec some_row_full live grid i =
  i < Array.length grid
  && (row_all_live live grid.(i) 0 || some_row_full live grid (i + 1))

let rec node_live live = function
  | Elem e -> Bitset.mem live e
  | Split { t1; grid; t2 } ->
      let a = node_live live t1 in
      let b = node_live live t2 in
      (a && b)
      || (a && rows_covered live grid 0)
      || (b && some_row_full live grid 0)

let[@inline] bit mask e = mask land (1 lsl e) <> 0

let rec row_some_bit mask row j =
  j < Array.length row && (bit mask row.(j) || row_some_bit mask row (j + 1))

let rec rows_covered_mask mask grid i =
  i = Array.length grid
  || (row_some_bit mask grid.(i) 0 && rows_covered_mask mask grid (i + 1))

let rec row_all_bits mask row j =
  j = Array.length row || (bit mask row.(j) && row_all_bits mask row (j + 1))

let rec some_row_full_mask mask grid i =
  i < Array.length grid
  && (row_all_bits mask grid.(i) 0 || some_row_full_mask mask grid (i + 1))

let rec node_live_mask mask = function
  | Elem e -> bit mask e
  | Split { t1; grid; t2 } ->
      let a = node_live_mask mask t1 in
      let b = node_live_mask mask t2 in
      (a && b)
      || (a && rows_covered_mask mask grid 0)
      || (b && some_row_full_mask mask grid 0)

let avail t live = node_live live t.root

(* The [k]-th live element of [row], and the [k]-th fully live row of
   [grid]: what [Rng.pick] returned from the filtered candidates. *)
let rec nth_live live row k i =
  if not (Bitset.mem live row.(i)) then nth_live live row k (i + 1)
  else if k = 0 then row.(i)
  else nth_live live row (k - 1) (i + 1)

let rec nth_full live grid k i =
  if not (row_full live grid.(i)) then nth_full live grid k (i + 1)
  else if k = 0 then grid.(i)
  else nth_full live grid (k - 1) (i + 1)

(* A row-cover of a sub-grid: one uniform live element per row, rows in
   order; a dead row fails without drawing for the rows after it. *)
let rec pick_cover rng live grid i q =
  i = Array.length grid
  ||
  let c = count_live live grid.(i) in
  c > 0
  && begin
       Bitset.add q (nth_live live grid.(i) (Rng.int rng c) 0);
       pick_cover rng live grid (i + 1) q
     end

(* A full-line of a sub-grid: one uniform fully live row. *)
let pick_line rng live grid q =
  let f = count_full live grid in
  f > 0
  && begin
       let row = nth_full live grid (Rng.int rng f) 0 in
       for i = 0 to Array.length row - 1 do
         Bitset.add q row.(i)
       done;
       true
     end

(* Every failure propagates to the root (a split never tries a second
   method), so a partial write never reaches a returned quorum; both
   halves of a method still run, for their draws. *)
let rec select_node rng live q = function
  | Elem e -> Bitset.mem live e && (Bitset.add q e; true)
  | Split { t1; grid; t2 } ->
      let a = node_live live t1 and b = node_live live t2 in
      let f1 = a && b
      and f2 = a && rows_covered live grid 0
      and f3 = b && some_row_full live grid 0 in
      (* [weights_of_split] inline, float operation for float
         operation, so the weights stay unboxed. *)
      let c1 = node_size t1 and c2 = node_size t2 in
      let c3 = Array.fold_left (fun acc row -> acc + Array.length row) 0 grid in
      let alpha = float_of_int c1 /. float_of_int (quorum_size t1) in
      let beta = float_of_int c2 /. float_of_int (quorum_size t2) in
      let q3l = float_of_int (Array.length grid.(0))
      and q3r = float_of_int (Array.length grid) in
      let k =
        (q3r +. q3l) /. (float_of_int c3 +. (q3r *. beta) +. (q3l *. alpha))
      in
      let w1 = ((alpha +. beta) *. k) -. 1.0
      and w2 = 1.0 -. (beta *. k)
      and w3 = 1.0 -. (alpha *. k) in
      (* A method is usable when feasible and of positive weight. *)
      let u1 = f1 && w1 > 0.0
      and u2 = f2 && w2 > 0.0
      and u3 = f3 && w3 > 0.0 in
      (u1 || u2 || u3)
      &&
      (* [Rng.pick_weighted] over the usable methods: the partial sums
         of its scan (an unusable method adds 0.0, which changes no
         sum), and the last usable method taken without a comparison. *)
      let acc1 = 0.0 +. if u1 then w1 else 0.0 in
      let acc2 = acc1 +. if u2 then w2 else 0.0 in
      let total = acc2 +. if u3 then w3 else 0.0 in
      let target = float_of_int (Rng.bits53 rng) *. 0x1.0p-53 *. total in
      if u1 && ((not (u2 || u3)) || target < acc1) then begin
        let ok2 = select_node rng live q t2 in
        select_node rng live q t1 && ok2
      end
      else if u2 && ((not u3) || target < acc2) then begin
        let ok = pick_cover rng live grid 0 q in
        select_node rng live q t1 && ok
      end
      else begin
        let ok = pick_line rng live grid q in
        select_node rng live q t2 && ok
      end

let select t rng ~live =
  let q = Bitset.create t.n in
  if select_node rng live q t.root then Some q else None

(* --- Exact availability counts -------------------------------------- *)

(* Count polynomials (total, available) of a node's live sets.  A
   split's parts share no process, so [avail_prob]'s inclusion-exclusion
   ab + ar + bf - abr - abf carries over with each part a term leaves
   out multiplied in as its total: with T_g the sub-grid's total,
   R = prod((1+x)^m - 1) its row-covers and F = T_g - prod((1+x)^m - x^m)
   its full-lines over its rows of m elements, the available count is
   A·B·T_g + A·R·T_2 + B·F·T_1 - A·B·R - A·B·F.  A change to
   [avail_prob] changes this too. *)
let rec node_counts = function
  | Elem _ -> (Int_poly.binomial 1, Int_poly.monomial 1)
  | Split { t1; grid; t2 } ->
      let open Int_poly in
      let total1, a = node_counts t1 and total2, b = node_counts t2 in
      let over_rows f =
        Array.fold_left
          (fun acc row -> mul acc (f (Array.length row)))
          one grid
      in
      let total_g = over_rows binomial in
      let r = over_rows (fun m -> sub (binomial m) one) in
      let f =
        sub total_g (over_rows (fun m -> sub (binomial m) (monomial m)))
      in
      let ab = mul a b in
      ( mul total1 (mul total_g total2),
        sub
          (add (mul ab total_g)
             (add (mul a (mul r total2)) (mul b (mul f total1))))
          (add (mul ab r) (mul ab f)) )

(* Universe ids outside the tree are spares, live or dead. *)
let avail_counts t =
  let _, avail = node_counts t.root in
  let spare = t.n - node_size t.root in
  Int_poly.coeffs ~n:t.n (Int_poly.mul avail (Int_poly.binomial spare))

let system ?name t =
  let name =
    match name with Some s -> s | None -> Printf.sprintf "h-triang(%d)" t.n
  in
  let avail_mask =
    if t.n <= Bitset.bits_per_word then
      Some (fun mask -> node_live_mask mask t.root)
    else None
  in
  System.make ~name ~n:t.n ~avail:(avail t) ?avail_mask
    ~avail_counts:(fun () -> avail_counts t)
    ~min_quorums:(lazy (quorums t))
    ~select:(select t) ()

(* --- Growth rules ------------------------------------------------- *)

let grow t rewrite =
  let next = ref t.n in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let replaced = ref false in
  let rec go node =
    if !replaced then node
    else
      match rewrite fresh node with
      | Some node' ->
          replaced := true;
          node'
      | None ->
          (match node with
          | Elem _ -> node
          | Split s ->
              let t1 = go s.t1 in
              let t2 = if !replaced then s.t2 else go s.t2 in
              Split { s with t1; t2 })
  in
  let root = go t.root in
  if !replaced then Some { root; n = !next; rows = t.rows } else None

let grow_unit_triangle t =
  grow t (fun fresh node ->
      match node with
      | Elem e ->
          Some
            (Split
               { t1 = Elem e; grid = [| [| fresh () |] |]; t2 = Elem (fresh ()) })
      | Split _ -> None)

let grow_unit_grid t =
  grow t (fun fresh node ->
      match node with
      | Split ({ grid = [| [| e |] |]; _ } as s) ->
          Some (Split { s with grid = [| [| e; fresh () |] |] })
      | Elem _ | Split _ -> None)

let grow_square_grid t =
  grow t (fun fresh node ->
      match node with
      | Split ({ grid; _ } as s)
        when Array.length grid = Array.length grid.(0) ->
          let m = Array.length grid in
          let grid' =
            Array.init (m + 1) (fun r ->
                Array.init (m + 1) (fun c ->
                    if r < m && c < m then grid.(r).(c) else fresh ()))
          in
          Some (Split { s with grid = grid' })
      | Elem _ | Split _ -> None)

(* --- Shrink rules (structural inverses of growth) ------------------ *)

let rec collect_ids acc = function
  | Elem e -> e :: acc
  | Split { t1; grid; t2 } ->
      let acc = collect_ids acc t1 in
      let acc =
        Array.fold_left
          (fun acc row -> Array.fold_left (fun a e -> e :: a) acc row)
          acc grid
      in
      collect_ids acc t2

let rec map_ids f = function
  | Elem e -> Elem (f e)
  | Split { t1; grid; t2 } ->
      Split
        {
          t1 = map_ids f t1;
          grid = Array.map (Array.map f) grid;
          t2 = map_ids f t2;
        }

(* Mirror of [grow]: rewrite the first (DFS) matching site, then
   compact the surviving ids order-preservingly so the result is again
   a system over a contiguous prefix [0, n).  Compaction is safe for
   online use because Reconfig carries state across epochs by
   seal / install, never by per-node identity. *)
let shrink t rewrite =
  let replaced = ref false in
  let rec go node =
    if !replaced then node
    else
      match rewrite node with
      | Some node' ->
          replaced := true;
          node'
      | None ->
          (match node with
          | Elem _ -> node
          | Split s ->
              let t1 = go s.t1 in
              let t2 = if !replaced then s.t2 else go s.t2 in
              Split { s with t1; t2 })
  in
  let root = go t.root in
  if not !replaced then None
  else begin
    let ids = List.sort_uniq compare (collect_ids [] root) in
    let remap = Hashtbl.create (List.length ids) in
    List.iteri (fun i e -> Hashtbl.add remap e i) ids;
    Some
      {
        root = map_ids (Hashtbl.find remap) root;
        n = List.length ids;
        rows = t.rows;
      }
  end

let shrink_unit_triangle t =
  shrink t (function
    | Split { t1 = Elem e; grid = [| [| _ |] |]; t2 = Elem _ } ->
        Some (Elem e)
    | Elem _ | Split _ -> None)

let shrink_unit_grid t =
  shrink t (function
    | Split ({ grid = [| [| a; _ |] |]; _ } as s) ->
        Some (Split { s with grid = [| [| a |] |] })
    | Elem _ | Split _ -> None)

let shrink_square_grid t =
  shrink t (function
    | Split ({ grid; _ } as s)
      when Array.length grid >= 2 && Array.length grid = Array.length grid.(0)
      ->
        let m = Array.length grid in
        Some
          (Split
             { s with grid = Array.init (m - 1) (fun r -> Array.sub grid.(r) 0 (m - 1)) })
    | Elem _ | Split _ -> None)

(* --- Rendering (Figure 2) ----------------------------------------- *)

let render t =
  let in_t1, in_grid =
    match t.root with
    | Elem _ -> ((fun _ -> false), fun _ -> false)
    | Split { t1; grid; _ } ->
        let s1 = collect_ids [] t1 in
        let sg =
          Array.fold_left
            (fun acc row -> Array.fold_left (fun a e -> e :: a) acc row)
            [] grid
        in
        ((fun e -> List.mem e s1), fun e -> List.mem e sg)
  in
  let buf = Buffer.create 256 in
  (* Only standard layouts know their coordinates; render by the
     row-major id formula, which holds for standard triangles. *)
  for r = 0 to t.rows - 1 do
    Buffer.add_string buf (String.make (2 * (t.rows - 1 - r)) ' ');
    for c = 0 to r do
      let e = (r * (r + 1) / 2) + c in
      let cell =
        if in_t1 e then Printf.sprintf " %2d " e
        else if in_grid e then Printf.sprintf "[%2d]" e
        else Printf.sprintf "(%2d)" e
      in
      Buffer.add_string buf cell
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
