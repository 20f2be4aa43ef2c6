module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng
module Strategy = Quorum.Strategy

(* Availability: the best (lowest-sitting) live full-line determines
   the largest usable threshold r*; by monotonicity of partial covers
   in the threshold, a T-grid quorum exists iff the threshold-r*
   partial cover is live. *)
let avail (t : Hgrid.t) live =
  let r = Hgrid.line_base live t.shape in
  r >= 0 && Hgrid.covers live r t.shape

let avail_mask (t : Hgrid.t) mask =
  let r = Hgrid.line_base_mask mask t.shape in
  r >= 0 && Hgrid.covers_mask mask r t.shape

let quorums (t : Hgrid.t) =
  Hgrid.full_lines_with_base t.shape
  |> List.concat_map (fun (base, line) ->
         Hgrid.partial_cover_quorums t.shape base
         |> List.map (fun cover -> Bitset.of_list t.n (line @ cover)))
  |> Quorum.Coterie.minimize

let select (t : Hgrid.t) rng ~live =
  let q = Bitset.create t.n in
  let base = Hgrid.select_full_line rng ~live t.shape q in
  if
    base >= 0
    && (Hgrid.select_cover rng ~live ~threshold:base t.shape q
       (* The chosen line's threshold has no live partial cover.  The
          full cover (threshold 0) needs more live rows, so it fails
          too; it still runs, because its draws are part of the
          stream every simulation replays. *)
       || Hgrid.select_cover rng ~live ~threshold:0 t.shape q)
  then Some q
  else None

let system ?name (t : Hgrid.t) =
  let name =
    match name with
    | Some s -> s
    | None ->
        Printf.sprintf "h-T-grid(%s)"
          (String.concat ","
             (List.map (fun (m, n) -> Printf.sprintf "%dx%d" m n) t.dims))
  in
  let avail_mask =
    if t.n <= Bitset.bits_per_word then Some (avail_mask t) else None
  in
  (* [avail]'s test on the same two numbers. *)
  let avail_counts () =
    Hgrid.avail_counts t (fun ~base ~cover -> base >= 0 && cover <= base)
  in
  System.make ~name ~n:t.n ~avail:(avail t) ?avail_mask ~avail_counts
    ~min_quorums:(lazy (quorums t))
    ~select:(select t) ()

(* Row weights of the section 4.3 strategy: load on a row-r element is
   w_r (its row is the base) plus (sum of higher-row weights) / cols
   (it serves as a cover pick); equalizing gives w_r = k - S_(r-1)/C
   with k fixed by normalization. *)
let row_weights ~rows ~cols =
  let u = Array.make rows 0.0 in
  let s = ref 0.0 in
  for r = 0 to rows - 1 do
    u.(r) <- 1.0 -. (!s /. float_of_int cols);
    s := !s +. u.(r)
  done;
  let k = 1.0 /. !s in
  (Array.map (fun x -> x *. k) u, k)

let flat_row_strategy (t : Hgrid.t) =
  let rows = t.global_rows and cols = t.global_cols in
  let weights, _ = row_weights ~rows ~cols in
  let full_row r = List.init cols (fun c -> (r * cols) + c) in
  let entries =
    List.concat
      (List.init rows (fun r ->
           let covers = Hgrid.partial_cover_quorums t.shape r in
           let p = weights.(r) /. float_of_int (List.length covers) in
           List.map
             (fun cover -> (Bitset.of_list t.n (full_row r @ cover), p))
             covers))
  in
  Strategy.make
    (Array.of_list (List.map fst entries))
    (Array.of_list (List.map snd entries))

(* The all-quorums variant: walk the hierarchy toward an intended base
   row, letting every full-line fragment slip to a lower local row with
   probability epsilon.  A dead fragment fails the whole selection, so
   the line is written straight into the result. *)
let select_lower_line ~epsilon (t : Hgrid.t) rng ~live =
  if epsilon < 0.0 || epsilon > 1.0 then
    invalid_arg "Htgrid.select_lower_line: epsilon out of [0,1]";
  let weights, _ = row_weights ~rows:t.global_rows ~cols:t.global_cols in
  let target = Rng.pick_weighted rng ~weights in
  let q = Bitset.create t.n in
  (* The fragment's topmost global row, or -1 when it is not live. *)
  let rec line_frag node target =
    match node with
    | Hgrid.Leaf l ->
        if Bitset.mem live l.id then begin
          Bitset.add q l.id;
          l.row
        end
        else -1
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
          if band = intended then target
          else g.row0 + (band * span)
        in
        let rec all j top =
          if j = Array.length row then top
          else
            let frag = line_frag row.(j) sub_target in
            if frag < 0 then -1 else all (j + 1) (min top frag)
        in
        all 0 max_int
  in
  let base = line_frag t.shape target in
  if base >= 0 && Hgrid.select_cover rng ~live ~threshold:base t.shape q then
    Some q
  else None
