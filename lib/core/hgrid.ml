module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng
module Combinat = Quorum.Combinat

type shape =
  | Leaf of { id : int; row : int; col : int }
  | Grid of { cells : shape array array; row0 : int; row1 : int }

type t = {
  shape : shape;
  n : int;
  global_rows : int;
  global_cols : int;
  dims : (int * int) list;
}

let of_dims dims =
  if dims = [] then invalid_arg "Hgrid.of_dims: no levels";
  List.iter
    (fun (m, n) ->
      if m <= 0 || n <= 0 then invalid_arg "Hgrid.of_dims: bad dimensions")
    dims;
  let global_rows = List.fold_left (fun acc (m, _) -> acc * m) 1 dims in
  let global_cols = List.fold_left (fun acc (_, n) -> acc * n) 1 dims in
  (* Spans of a level's sub-objects in global coordinates. *)
  let rec build dims ~row0 ~col0 =
    match dims with
    | [] -> Leaf { id = (row0 * global_cols) + col0; row = row0; col = col0 }
    | (m, n) :: rest ->
        let row_span = List.fold_left (fun acc (m', _) -> acc * m') 1 rest in
        let col_span = List.fold_left (fun acc (_, n') -> acc * n') 1 rest in
        let cells =
          Array.init m (fun i ->
              Array.init n (fun j ->
                  build rest
                    ~row0:(row0 + (i * row_span))
                    ~col0:(col0 + (j * col_span))))
        in
        Grid { cells; row0; row1 = row0 + (m * row_span) }
  in
  {
    shape = build dims ~row0:0 ~col0:0;
    n = global_rows * global_cols;
    global_rows;
    global_cols;
    dims;
  }

let flat ~rows ~cols = of_dims [ (rows, cols) ]

let preferred_2x2 ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Hgrid.preferred_2x2";
  (* Peel nested 2x2 levels (listed top-down, so they are the outer
     ones) while both dimensions stay even; whatever remains is the
     innermost level. *)
  let rec levels r c =
    if r mod 2 = 0 && c mod 2 = 0 && (r > 2 || c > 2) then
      (2, 2) :: levels (r / 2) (c / 2)
    else if r = 1 && c = 1 then []
    else [ (r, c) ]
  in
  of_dims (levels rows cols)

let of_blocks ~row_parts ~col_parts =
  if row_parts = [] || col_parts = [] then invalid_arg "Hgrid.of_blocks";
  List.iter
    (fun k -> if k <= 0 then invalid_arg "Hgrid.of_blocks: bad part")
    (row_parts @ col_parts);
  let rows = List.fold_left ( + ) 0 row_parts in
  let cols = List.fold_left ( + ) 0 col_parts in
  let spans parts origin =
    List.fold_left
      (fun (acc, off) len -> ((off, len) :: acc, off + len))
      ([], origin) parts
    |> fst |> List.rev
  in
  let flat_block ~row0 ~col0 ~h ~w =
    let cells =
      Array.init h (fun i ->
          Array.init w (fun j ->
              let r = row0 + i and c = col0 + j in
              Leaf { id = (r * cols) + c; row = r; col = c }))
    in
    if h = 1 && w = 1 then cells.(0).(0)
    else Grid { cells; row0; row1 = row0 + h }
  in
  let cells =
    Array.of_list
      (List.map
         (fun (r0, h) ->
           Array.of_list
             (List.map
                (fun (c0, w) -> flat_block ~row0:r0 ~col0:c0 ~h ~w)
                (spans col_parts 0)))
         (spans row_parts 0))
  in
  {
    shape = Grid { cells; row0 = 0; row1 = rows };
    n = rows * cols;
    global_rows = rows;
    global_cols = cols;
    dims = [ (rows, cols) ];
  }

let auto_2x2 ?(ceil_first = false) ~rows ~cols () =
  if rows <= 0 || cols <= 0 then invalid_arg "Hgrid.auto_2x2";
  let split k =
    let big = (k + 1) / 2 and small = k / 2 in
    if ceil_first then [ big; small ] else [ small; big ]
  in
  let global_cols = cols in
  let rec build r c ~row0 ~col0 =
    if r = 1 && c = 1 then
      Leaf { id = (row0 * global_cols) + col0; row = row0; col = col0 }
    else if r <= 2 && c <= 2 then begin
      (* Dimensions of at most 2 are not subdivided: the block is a
         flat grid of processes (the paper's "2x2 whenever possible"
         bottoms out here). *)
      let cells =
        Array.init r (fun i ->
            Array.init c (fun j ->
                let gr = row0 + i and gc = col0 + j in
                Leaf { id = (gr * global_cols) + gc; row = gr; col = gc }))
      in
      Grid { cells; row0; row1 = row0 + r }
    end
    else begin
      let row_parts = if r <= 2 then [ r ] else split r in
      let col_parts = if c <= 2 then [ c ] else split c in
      let offsets parts origin =
        List.fold_left
          (fun (acc, off) len -> ((off, len) :: acc, off + len))
          ([], origin) parts
        |> fst |> List.rev
      in
      let row_spans = offsets row_parts row0 in
      let col_spans = offsets col_parts col0 in
      let cells =
        Array.of_list
          (List.map
             (fun (r0, rl) ->
               Array.of_list
                 (List.map
                    (fun (c0, cl) -> build rl cl ~row0:r0 ~col0:c0)
                    col_spans))
             row_spans)
      in
      Grid { cells; row0; row1 = row0 + r }
    end
  in
  {
    shape = build rows cols ~row0:0 ~col0:0;
    n = rows * cols;
    global_rows = rows;
    global_cols = cols;
    dims = [ (rows, cols) ];
  }

(* --- Quorum enumeration ----------------------------------------- *)

let rec row_cover_quorums = function
  | Leaf l -> [ [ l.id ] ]
  | Grid g ->
      Array.to_list g.cells
      |> List.map (fun row ->
             List.concat_map row_cover_quorums (Array.to_list row))
      |> Combinat.product
      |> List.map List.concat

let rec full_lines_with_base = function
  | Leaf l -> [ (l.row, [ l.id ]) ]
  | Grid g ->
      Array.to_list g.cells
      |> List.concat_map (fun row ->
             Array.to_list row
             |> List.map full_lines_with_base
             |> Combinat.product
             |> List.map (fun parts ->
                    let base =
                      List.fold_left (fun acc (b, _) -> min acc b) max_int
                        parts
                    in
                    (base, List.concat_map snd parts)))

let full_line_quorums shape = List.map snd (full_lines_with_base shape)

let rec partial_cover_raw r = function
  | Leaf l -> if l.row < r then [ [] ] else [ [ l.id ] ]
  | Grid g ->
      if g.row1 <= r then [ [] ]
      else
        Array.to_list g.cells
        |> List.map (fun row ->
               List.concat_map (partial_cover_raw r) (Array.to_list row))
        |> Combinat.product
        |> List.map List.concat

let partial_cover_quorums shape r =
  partial_cover_raw r shape
  |> List.map (List.sort_uniq compare)
  |> List.sort_uniq compare

(* --- Structural checks ------------------------------------------- *)

(* Closure-free, so that neither availability nor selection allocates;
   each check over the live bitset has a copy over a raw mask, which
   the exact 2^n scans call.  [covers live r]: some row-cover has all
   its elements of global rows [>= r] live (threshold [0] is the full
   row-cover); [lined live]: some full-line is live. *)

let rec covers live r = function
  | Leaf l -> l.row < r || Bitset.mem live l.id
  | Grid g -> g.row1 <= r || rows_covered live r g.cells 0

and rows_covered live r rows i =
  i = Array.length rows
  || (row_covered live r rows.(i) 0 && rows_covered live r rows (i + 1))

and row_covered live r row j =
  j < Array.length row
  && (covers live r row.(j) || row_covered live r row (j + 1))

let rec lined live = function
  | Leaf l -> Bitset.mem live l.id
  | Grid g -> some_row_lined live g.cells 0

and some_row_lined live rows i =
  i < Array.length rows
  && (row_lined live rows.(i) 0 || some_row_lined live rows (i + 1))

and row_lined live row j =
  j = Array.length row || (lined live row.(j) && row_lined live row (j + 1))

(* The topmost global row of the lowest-sitting live full-line, or [-1]
   when none is live.  A grid's rows are scanned from the bottom up and
   the first lined one decides: every constructor lays a grid's rows
   out top to bottom, so every cell of a row lies below every cell of
   the rows above it, and a line in a lower row sits lower.  Within a
   row the line's top is the highest of its cells' tops. *)
let rec line_base live = function
  | Leaf l -> if Bitset.mem live l.id then l.row else -1
  | Grid g -> lowest_row_base live g.cells (Array.length g.cells - 1)

and lowest_row_base live rows i =
  if i < 0 then -1
  else
    let top = row_base live rows.(i) 0 max_int in
    if top >= 0 then top else lowest_row_base live rows (i - 1)

and row_base live row j top =
  if j = Array.length row then top
  else
    let b = line_base live row.(j) in
    if b < 0 then -1 else row_base live row (j + 1) (min top b)

let[@inline] bit mask i = mask land (1 lsl i) <> 0

let rec covers_mask mask r = function
  | Leaf l -> l.row < r || bit mask l.id
  | Grid g -> g.row1 <= r || rows_covered_mask mask r g.cells 0

and rows_covered_mask mask r rows i =
  i = Array.length rows
  || (row_covered_mask mask r rows.(i) 0
     && rows_covered_mask mask r rows (i + 1))

and row_covered_mask mask r row j =
  j < Array.length row
  && (covers_mask mask r row.(j) || row_covered_mask mask r row (j + 1))

let rec lined_mask mask = function
  | Leaf l -> bit mask l.id
  | Grid g -> some_row_lined_mask mask g.cells 0

and some_row_lined_mask mask rows i =
  i < Array.length rows
  && (row_lined_mask mask rows.(i) 0 || some_row_lined_mask mask rows (i + 1))

and row_lined_mask mask row j =
  j = Array.length row
  || (lined_mask mask row.(j) && row_lined_mask mask row (j + 1))

let rec line_base_mask mask = function
  | Leaf l -> if bit mask l.id then l.row else -1
  | Grid g -> lowest_row_base_mask mask g.cells (Array.length g.cells - 1)

and lowest_row_base_mask mask rows i =
  if i < 0 then -1
  else
    let top = row_base_mask mask rows.(i) 0 max_int in
    if top >= 0 then top else lowest_row_base_mask mask rows (i - 1)

and row_base_mask mask row j top =
  if j = Array.length row then top
  else
    let b = line_base_mask mask row.(j) in
    if b < 0 then -1 else row_base_mask mask row (j + 1) (min top b)

(* --- Exact availability counts ------------------------------------ *)

(* The live sets of a node by the two numbers the checks read: [b],
   its [line_base] ([-1] when no full-line is live), and [c], the
   least threshold at which it [covers] ([covers] is monotone in the
   threshold).  Over a node spanning the global rows [row0, row0 +
   rows), [b] is [-1] or one of those rows and [c] is [0] or in
   [row0 + 1, row0 + rows], so a state is a pair of offsets in
   [0, rows].  A law holds every state's count polynomial in one flat
   array: entry [state * (size + 1) + k] counts the live sets of [k]
   of the node's [size] processes in that state.  Cells share no
   process, so two laws combine state pair by state pair, their
   polynomials multiplied. *)

type law = { row0 : int; rows : int; size : int; counts : int array }

let states l = (l.rows + 1) * (l.rows + 1)

let base l s =
  let bi = s / (l.rows + 1) in
  if bi = 0 then -1 else l.row0 + bi - 1

let cover l s =
  let ci = s mod (l.rows + 1) in
  if ci = 0 then 0 else l.row0 + ci

let state l b c =
  ((if b < 0 then 0 else b - l.row0 + 1) * (l.rows + 1))
  + if c = 0 then 0 else c - l.row0

let empty ~row0 ~rows ~size =
  {
    row0;
    rows;
    size;
    counts = Array.make ((rows + 1) * (rows + 1) * (size + 1)) 0;
  }

(* [beside]: [l1] and [l2] are cells of one row.  A line needs every
   cell's ([-1] if one has none) and sits at the highest of their
   tops; the row covers once one cell does.  Otherwise [l1] is the law
   of a grid's lower rows and [l2] the row above them: the lowest
   lined row gives the line base ([line_base]'s bottom-up scan), and
   the grid covers once every row does. *)
let combine ~beside l1 l2 =
  let row0 = min l1.row0 l2.row0 in
  let l =
    empty ~row0
      ~rows:(max (l1.row0 + l1.rows) (l2.row0 + l2.rows) - row0)
      ~size:(l1.size + l2.size)
  in
  let w1 = l1.size + 1 and w2 = l2.size + 1 and w = l.size + 1 in
  for s1 = 0 to states l1 - 1 do
    for s2 = 0 to states l2 - 1 do
      let b1 = base l1 s1 and b2 = base l2 s2 in
      let c1 = cover l1 s1 and c2 = cover l2 s2 in
      let s =
        if beside then
          state l (if b1 < 0 || b2 < 0 then -1 else min b1 b2) (min c1 c2)
        else state l (if b1 >= 0 then b1 else b2) (max c1 c2)
      in
      for i = 0 to l1.size do
        let x = l1.counts.((s1 * w1) + i) in
        if x <> 0 then
          for j = 0 to l2.size do
            let k = (s * w) + i + j in
            l.counts.(k) <- l.counts.(k) + (x * l2.counts.((s2 * w2) + j))
          done
      done
    done
  done;
  l

(* Every leaf's counts, offsets being relative to its row: live, it
   is a line at its row and covers at every threshold (state (1, 0),
   one set of one process); dead, it covers only past its row (state
   (0, 1), the empty set).  Laws are never written once built, so the
   leaves share this array. *)
let leaf_counts = [| 0; 0; 1; 0; 0; 1; 0; 0 |]

let rec law = function
  | Leaf l -> { row0 = l.row; rows = 1; size = 1; counts = leaf_counts }
  | Grid g ->
      let row_law row =
        let acc = ref (law row.(0)) in
        for j = 1 to Array.length row - 1 do
          acc := combine ~beside:true !acc (law row.(j))
        done;
        !acc
      in
      let m = Array.length g.cells in
      let acc = ref (row_law g.cells.(m - 1)) in
      for i = m - 2 downto 0 do
        acc := combine ~beside:false !acc (row_law g.cells.(i))
      done;
      !acc

let avail_counts t ok =
  let l = law t.shape in
  let counts = Array.make (t.n + 1) 0 in
  for s = 0 to states l - 1 do
    if ok ~base:(base l s) ~cover:(cover l s) then
      for k = 0 to l.size do
        counts.(k) <- counts.(k) + l.counts.((s * (l.size + 1)) + k)
      done
  done;
  counts

(* --- Selection --------------------------------------------------- *)

(* The selectors write the quorum they pick straight into a bitset.
   Their draws are pinned against reference selectors in
   test/test_select.ml: a row-cover shuffles the cells of each row and
   takes the first that covers, a full-line shuffles the rows and takes
   the first that is full.  A failed attempt must leave nothing in the
   bitset, so an attempt writes only where [covers] or [lined] has
   shown that it succeeds; elsewhere it makes the same draws without
   writing. *)

(* A shuffled visiting order of [0, len): the permutation
   [Rng.shuffle_in_place] applies to an array of [len], from the same
   draws.  Up to 15 positions pack four bits each into an int, so the
   rows of every construction here are ordered without allocating;
   wider rows spill into an index array. *)
let packed_max = 15

let shuffle_packed rng len =
  if len > packed_max then 0
  else begin
    let p = ref 0 in
    for i = len - 1 downto 0 do
      p := (!p lsl 4) lor i
    done;
    for i = len - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let si = 4 * i and sj = 4 * j in
      let a = (!p lsr si) land 15 and b = (!p lsr sj) land 15 in
      p :=
        !p land lnot ((15 lsl si) lor (15 lsl sj)) lor (b lsl si) lor (a lsl sj)
    done;
    !p
  end

let shuffle_spill rng len =
  if len <= packed_max then [||]
  else begin
    let order = Array.init len Fun.id in
    Rng.shuffle_in_place rng order;
    order
  end

let[@inline] order_at packed spill k =
  if Array.length spill = 0 then (packed lsr (4 * k)) land 15 else spill.(k)

(* One partial row-cover attempt at threshold [r]; true when it
   succeeds.  Writes into [q] only when [write]. *)
let rec cover rng live r ~write shape q =
  match shape with
  | Leaf l ->
      l.row < r
      || (Bitset.mem live l.id && (if write then Bitset.add q l.id; true))
  | Grid g -> g.row1 <= r || cover_rows rng live r ~write g.cells 0 q

and cover_rows rng live r ~write rows i q =
  i = Array.length rows
  || (let row = rows.(i) in
      let len = Array.length row in
      let packed = shuffle_packed rng len in
      let spill = shuffle_spill rng len in
      cover_cells rng live r ~write row packed spill 0 q)
     && cover_rows rng live r ~write rows (i + 1) q

and cover_cells rng live r ~write row packed spill k q =
  k < Array.length row
  && begin
       let cell = row.(order_at packed spill k) in
       cover rng live r ~write:(write && covers live r cell) cell q
       || cover_cells rng live r ~write row packed spill (k + 1) q
     end

(* One full-line attempt: the topmost global row of the line, or [-1]
   when it fails.  Writes into [q] only when [write]. *)
let rec line rng live ~write shape q =
  match shape with
  | Leaf l ->
      if Bitset.mem live l.id then begin
        if write then Bitset.add q l.id;
        l.row
      end
      else -1
  | Grid g ->
      let m = Array.length g.cells in
      let packed = shuffle_packed rng m in
      let spill = shuffle_spill rng m in
      line_rows rng live ~write g.cells packed spill 0 q

and line_rows rng live ~write rows packed spill k q =
  if k = Array.length rows then -1
  else begin
    let row = rows.(order_at packed spill k) in
    let top =
      line_cells rng live ~write:(write && row_lined live row 0) row 0 max_int q
    in
    if top >= 0 then top
    else line_rows rng live ~write rows packed spill (k + 1) q
  end

and line_cells rng live ~write row j top q =
  if j = Array.length row then top
  else begin
    let t = line rng live ~write row.(j) q in
    if t < 0 then -1 else line_cells rng live ~write row (j + 1) (min top t) q
  end

let select_cover rng ~live ~threshold shape q =
  cover rng live threshold ~write:(covers live threshold shape) shape q

let select_full_line rng ~live shape q =
  line rng live ~write:(lined live shape) shape q

(* --- Systems ----------------------------------------------------- *)

let make_system ?name t ~default_name ~avail ~avail_mask ~counted ~quorums
    ~select_into =
  let name = match name with Some s -> s | None -> default_name in
  let avail_mask =
    if t.n <= Bitset.bits_per_word then Some avail_mask else None
  in
  let min_quorums =
    lazy
      (Quorum.Coterie.minimize (List.map (Bitset.of_list t.n) (quorums ())))
  in
  let select rng ~live =
    let q = Bitset.create t.n in
    if select_into rng live q then Some q else None
  in
  System.make ~name ~n:t.n ~avail ?avail_mask
    ~avail_counts:(fun () -> avail_counts t counted)
    ~min_quorums ~select ()

let dims_string t =
  String.concat ","
    (List.map (fun (m, n) -> Printf.sprintf "%dx%d" m n) t.dims)

let read_system ?name t =
  make_system ?name t
    ~default_name:(Printf.sprintf "h-grid-read(%s)" (dims_string t))
    ~avail:(fun live -> covers live 0 t.shape)
    ~avail_mask:(fun mask -> covers_mask mask 0 t.shape)
    ~counted:(fun ~base:_ ~cover -> cover = 0)
    ~quorums:(fun () -> row_cover_quorums t.shape)
    ~select_into:(fun rng live q ->
      select_cover rng ~live ~threshold:0 t.shape q)

let write_system ?name t =
  make_system ?name t
    ~default_name:(Printf.sprintf "h-grid-write(%s)" (dims_string t))
    ~avail:(fun live -> lined live t.shape)
    ~avail_mask:(fun mask -> lined_mask mask t.shape)
    ~counted:(fun ~base ~cover:_ -> base >= 0)
    ~quorums:(fun () -> full_line_quorums t.shape)
    ~select_into:(fun rng live q -> select_full_line rng ~live t.shape q >= 0)

let rw_system ?name t =
  make_system ?name t
    ~default_name:(Printf.sprintf "h-grid(%s)" (dims_string t))
    ~avail:(fun live -> covers live 0 t.shape && lined live t.shape)
    ~avail_mask:(fun mask ->
      covers_mask mask 0 t.shape && lined_mask mask t.shape)
    ~counted:(fun ~base ~cover -> base >= 0 && cover = 0)
    ~quorums:(fun () ->
      List.concat_map
        (fun line ->
          List.map (fun cover -> line @ cover) (row_cover_quorums t.shape))
        (full_line_quorums t.shape))
    ~select_into:(fun rng live q ->
      (* The full-line draws first. *)
      let top = select_full_line rng ~live t.shape q in
      select_cover rng ~live ~threshold:0 t.shape q && top >= 0)

(* --- Exact analysis ---------------------------------------------- *)

type mode = Read | Write | Read_write

(* Joint law of (row-cover available, full-line available) per node:
   (p_rc, p_fl, p_both).  Disjoint sub-objects make cells independent;
   within a grid, rows are independent too.  [p] maps a process id to
   its crash probability. *)
let rec joint p = function
  | Leaf l ->
      let q = 1.0 -. p l.id in
      (q, q, q)
  | Grid g ->
      let row_stats row =
        let cells = Array.map (joint p) row in
        let b = Array.fold_left (fun acc (_, fl, _) -> acc *. fl) 1.0 cells in
        let a =
          1.0
          -. Array.fold_left (fun acc (rc, _, _) -> acc *. (1.0 -. rc)) 1.0 cells
        in
        let ab =
          b
          -. Array.fold_left
               (fun acc (_, fl, both) -> acc *. (fl -. both))
               1.0 cells
        in
        (a, b, ab)
      in
      let rows = Array.map row_stats g.cells in
      let rc = Array.fold_left (fun acc (a, _, _) -> acc *. a) 1.0 rows in
      let fl =
        1.0 -. Array.fold_left (fun acc (_, b, _) -> acc *. (1.0 -. b)) 1.0 rows
      in
      let both =
        rc
        -. Array.fold_left (fun acc (a, _, ab) -> acc *. (a -. ab)) 1.0 rows
      in
      (rc, fl, both)

let failure_probability_hetero t mode ~p_of =
  let rc, fl, both = joint p_of t.shape in
  match mode with
  | Read -> 1.0 -. rc
  | Write -> 1.0 -. fl
  | Read_write -> 1.0 -. both

let failure_probability t mode ~p =
  failure_probability_hetero t mode ~p_of:(fun _ -> p)

(* --- Rendering (Figure 1) ---------------------------------------- *)

let render ?quorum t =
  let starred id =
    match quorum with Some q -> Bitset.mem q id | None -> false
  in
  (* Separator positions: boundaries of the outermost sub-objects. *)
  let inner_rows, inner_cols =
    match t.dims with
    | [] | [ _ ] -> (t.global_rows, t.global_cols)
    | (m, n) :: _ -> (t.global_rows / m, t.global_cols / n)
  in
  let buf = Buffer.create 256 in
  for r = 0 to t.global_rows - 1 do
    if r > 0 && r mod inner_rows = 0 then begin
      for c = 0 to t.global_cols - 1 do
        if c > 0 && c mod inner_cols = 0 then Buffer.add_string buf "-+";
        Buffer.add_string buf "----"
      done;
      Buffer.add_char buf '\n'
    end;
    for c = 0 to t.global_cols - 1 do
      if c > 0 && c mod inner_cols = 0 then Buffer.add_string buf " |";
      let id = (r * t.global_cols) + c in
      Buffer.add_string buf
        (Printf.sprintf "%3d%s" id (if starred id then "*" else " "))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
