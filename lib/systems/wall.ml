module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng

type t = { widths : int array; offsets : int array; n : int }

let layout widths =
  if Array.length widths = 0 then invalid_arg "Wall.layout: no rows";
  Array.iter
    (fun w -> if w <= 0 then invalid_arg "Wall.layout: non-positive width")
    widths;
  let d = Array.length widths in
  let offsets = Array.make d 0 in
  let total = ref 0 in
  for i = 0 to d - 1 do
    offsets.(i) <- !total;
    total := !total + widths.(i)
  done;
  { widths; offsets; n = !total }

let element t ~row ~idx =
  if row < 0 || row >= Array.length t.widths then
    invalid_arg "Wall.element: bad row";
  if idx < 0 || idx >= t.widths.(row) then invalid_arg "Wall.element: bad idx";
  t.offsets.(row) + idx

(* A base row is minimal-quorum-producing unless some strictly lower
   row has width 1: the single pick there would itself be a full row,
   so the quorum would contain (hence dominate over) a lower-based
   one. *)
let minimal_bases widths =
  let d = Array.length widths in
  let rec collect i unit_below acc =
    if i < 0 then acc
    else
      let acc = if unit_below then acc else i :: acc in
      collect (i - 1) (unit_below || widths.(i) = 1) acc
  in
  collect (d - 1) false []

(* In floats: wide walls overflow an int. *)
let quorum_count widths =
  let d = Array.length widths in
  let rec below i =
    if i >= d then 1.0 else float_of_int widths.(i) *. below (i + 1)
  in
  List.fold_left (fun acc base -> acc +. below (base + 1)) 0.0
    (minimal_bases widths)

(* All minimal quorums: for each usable base row, the full row joined
   with every choice of one element per lower row. *)
let enumerate_quorums t =
  let d = Array.length t.widths in
  let rows_below base =
    let rec collect i =
      if i = d then []
      else
        List.init t.widths.(i) (fun idx -> element t ~row:i ~idx)
        :: collect (i + 1)
    in
    collect (base + 1)
  in
  let quorums_of_base base =
    let full_row =
      List.init t.widths.(base) (fun idx -> element t ~row:base ~idx)
    in
    Quorum.Combinat.product (rows_below base)
    |> List.map (fun picks -> Bitset.of_list t.n (full_row @ picks))
  in
  List.concat_map quorums_of_base (minimal_bases t.widths)

let row_mask t row =
  let rec build idx acc =
    if idx = t.widths.(row) then acc
    else build (idx + 1) (acc lor (1 lsl element t ~row ~idx))
  in
  build 0 0

(* Bottom-up: [below_ok] tracks whether all rows strictly below row
   [i] are non-empty. *)
let rec scan_mask masks live i below_ok =
  if i < 0 then false
  else if below_ok && live land masks.(i) = masks.(i) then true
  else scan_mask masks live (i - 1) (below_ok && live land masks.(i) <> 0)

let make_avail_mask t =
  let d = Array.length t.widths in
  let masks = Array.init d (fun row -> row_mask t row) in
  fun live -> scan_mask masks live (d - 1) true

let make_avail t =
  let d = Array.length t.widths in
  let row_full live row =
    let rec check idx =
      idx = t.widths.(row)
      || (Bitset.mem live (element t ~row ~idx) && check (idx + 1))
    in
    check 0
  in
  let row_nonempty live row =
    let rec check idx =
      idx < t.widths.(row)
      && (Bitset.mem live (element t ~row ~idx) || check (idx + 1))
    in
    check 0
  in
  fun live ->
    let rec scan i below_ok =
      if i < 0 then false
      else if below_ok && row_full live i then true
      else scan (i - 1) (below_ok && row_nonempty live i)
    in
    scan (d - 1) true

let make_select t =
  let d = Array.length t.widths in
  fun rng ~live ->
    let live_in_row row =
      List.filter (Bitset.mem live)
        (List.init t.widths.(row) (fun idx -> element t ~row ~idx))
    in
    let row_full row = List.length (live_in_row row) = t.widths.(row) in
    (* Usable base rows: fully live with live elements in every lower
       row; collected in one bottom-up pass. *)
    let rec bases i below_ok acc =
      if i < 0 then acc
      else
        let acc = if below_ok && row_full i then i :: acc else acc in
        bases (i - 1) (below_ok && live_in_row i <> []) acc
    in
    match bases (d - 1) true [] with
    | [] -> None
    | candidates ->
        let base = Rng.pick rng (Array.of_list candidates) in
        let quorum = Bitset.create t.n in
        for idx = 0 to t.widths.(base) - 1 do
          Bitset.add quorum (element t ~row:base ~idx)
        done;
        let rec fill row =
          if row < d then begin
            Bitset.add quorum
              (Rng.pick rng (Array.of_list (live_in_row row)));
            fill (row + 1)
          end
        in
        fill (base + 1);
        Some quorum

(* Exact availability counts: [failure_probability_hetero]'s four-state
   row DP over count polynomials.  Rows share no process, so a row of
   [w] elements is full on x^w of its live sets, non-empty on
   (1+x)^w - 1 and empty on one; each state counts the live sets of the
   row suffix in it.  A change to the float DP changes this too. *)
let avail_counts t =
  let open Quorum.Int_poly in
  let rec scan i (sn, s, xn, x) =
    if i < 0 then coeffs ~n:t.n (add sn s)
    else begin
      let full = monomial t.widths.(i) in
      let nonempty = sub (binomial t.widths.(i)) one in
      let partial = sub nonempty full in
      let sn' = add (mul full (add sn xn)) (mul partial sn) in
      let s' = add (add sn s) (add (mul partial s) (mul full s)) in
      let xn' = mul partial xn in
      let x' = add (add xn x) (add (mul partial x) (mul full x)) in
      scan (i - 1) (sn', s', xn', x')
    end
  in
  scan (Array.length t.widths - 1) ([||], [||], one, [||])

let system ?name widths =
  let t = layout widths in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "wall(%d)" t.n
  in
  (* Up to 62 processes both checks run the mask kernel, which
     allocates nothing. *)
  let avail, avail_mask =
    if t.n <= Bitset.bits_per_word then begin
      let avail_mask = make_avail_mask t in
      ((fun live -> avail_mask (Bitset.to_mask live)), Some avail_mask)
    end
    else (make_avail t, None)
  in
  System.make ~name ~n:t.n ~avail ?avail_mask
    ~avail_counts:(fun () -> avail_counts t)
    ~min_quorums:
      (Thresh.capped ~name:"Wall"
         (fun () -> quorum_count t.widths)
         (fun () -> enumerate_quorums t))
    ~select:(make_select t) ()

let failure_probability_hetero ~widths ~p_of =
  let t = layout widths in
  let d = Array.length t.widths in
  (* Joint law over the row suffix i..d-1 of
     (S = suffix contains a quorum, N = every suffix row non-empty).
     States: sn = P(S and N), s = P(S and not N), xn = P(not S and N),
     x = P(neither).  Below the bottom row: no quorum, vacuously all
     non-empty. *)
  let rec scan i (sn, s, xn, x) =
    if i < 0 then sn +. s
    else begin
      let full = ref 1.0 and all_dead = ref 1.0 in
      for idx = 0 to t.widths.(i) - 1 do
        let pe = p_of (element t ~row:i ~idx) in
        full := !full *. (1.0 -. pe);
        all_dead := !all_dead *. pe
      done;
      let full = !full in
      let nonempty = 1.0 -. !all_dead in
      let partial = nonempty -. full in
      let empty = 1.0 -. nonempty in
      (* A full row i on top of an all-non-empty suffix creates a
         quorum; otherwise S persists from below. *)
      let sn' = (full *. (sn +. xn)) +. (partial *. sn) in
      let s' = (empty *. (sn +. s)) +. (partial *. s) +. (full *. s) in
      let xn' = partial *. xn in
      let x' = (empty *. (xn +. x)) +. (partial *. x) +. (full *. x) in
      scan (i - 1) (sn', s', xn', x')
    end
  in
  1.0 -. scan (d - 1) (0.0, 0.0, 1.0, 0.0)

let failure_probability ~widths ~p =
  failure_probability_hetero ~widths ~p_of:(fun _ -> p)
