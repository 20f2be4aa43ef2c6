module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng

type mode = Read | Write | Read_write

let element ~cols ~row ~col = (row * cols) + col

let check ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid: non-positive dimensions"

let mode_string = function
  | Read -> "read"
  | Write -> "write"
  | Read_write -> "rw"

let row_elements ~cols row = List.init cols (fun col -> element ~cols ~row ~col)

let row_cover_quorums ~rows ~cols =
  List.init rows (fun row -> row_elements ~cols row)
  |> Quorum.Combinat.product
  |> List.map (Bitset.of_list (rows * cols))

let full_line_quorums ~rows ~cols =
  List.init rows (fun row -> Bitset.of_list (rows * cols) (row_elements ~cols row))

(* Minimal read-write quorums: full row [i] plus one element from every
   other row (a cover element inside row [i] would be redundant). *)
let read_write_quorums ~rows ~cols =
  let n = rows * cols in
  let quorums_of_base base =
    List.init rows (fun row -> row)
    |> List.filter (fun row -> row <> base)
    |> List.map (fun row -> row_elements ~cols row)
    |> Quorum.Combinat.product
    |> List.map (fun picks ->
           Bitset.of_list n (row_elements ~cols base @ picks))
  in
  List.concat_map quorums_of_base (List.init rows (fun i -> i))

(* Over the row masks: every row meets the live set / some row lies in
   it. *)
let rec rows_met masks live i =
  i = Array.length masks
  || (live land masks.(i) <> 0 && rows_met masks live (i + 1))

let rec some_row_full masks live i =
  i < Array.length masks
  && (live land masks.(i) = masks.(i) || some_row_full masks live (i + 1))

let make_preds ~rows ~cols =
  let n = rows * cols in
  let row_mask row =
    let rec build col acc =
      if col = cols then acc
      else build (col + 1) (acc lor (1 lsl element ~cols ~row ~col))
    in
    build 0 0
  in
  let masks = Array.init rows row_mask in
  let cover_mask live = rows_met masks live 0 in
  let line_mask live = some_row_full masks live 0 in
  let cover live =
    let row_nonempty row =
      let rec check col =
        col < cols
        && (Bitset.mem live (element ~cols ~row ~col) || check (col + 1))
      in
      check 0
    in
    let rec all row = row = rows || (row_nonempty row && all (row + 1)) in
    all 0
  in
  let line live =
    let row_full row =
      let rec check col =
        col = cols
        || (Bitset.mem live (element ~cols ~row ~col) && check (col + 1))
      in
      check 0
    in
    let rec any row = row < rows && (row_full row || any (row + 1)) in
    any 0
  in
  (n, cover, line, cover_mask, line_mask)

(* Exact availability counts.  Rows share no process, so with
   N = (1+x)^c - 1 (the row meets the live set) and F = x^c (the row
   is fully live): read is N^r, write is every live set but those
   with no full row, ((1+x)^c - x^c)^r, and read-write is the cover
   without the covers that have no full row, N^r - (N - F)^r.  These
   are [failure_probability_hetero]'s row formulas over counts; a
   change to one changes the other. *)
let avail_counts ~rows ~cols mode =
  let module P = Quorum.Int_poly in
  let row = P.binomial cols and full = P.monomial cols in
  let met = P.sub row P.one in
  let counts =
    match mode with
    | Read -> P.pow met rows
    | Write -> P.sub (P.binomial (rows * cols)) (P.pow (P.sub row full) rows)
    | Read_write -> P.sub (P.pow met rows) (P.pow (P.sub met full) rows)
  in
  P.coeffs ~n:(rows * cols) counts

let system ?name ~rows ~cols mode =
  check ~rows ~cols;
  let n, cover, line, cover_mask, line_mask = make_preds ~rows ~cols in
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "grid-%s(%dx%d)" (mode_string mode) rows cols
  in
  (* cols^rows row-covers, rows lines, rows * cols^(rows - 1) pairs. *)
  let r = float_of_int rows and c = float_of_int cols in
  let avail, avail_mask, count, quorums =
    match mode with
    | Read -> (cover, cover_mask, (fun () -> Float.pow c r), row_cover_quorums)
    | Write -> (line, line_mask, (fun () -> r), full_line_quorums)
    | Read_write ->
        ( (fun live -> cover live && line live),
          (fun live -> cover_mask live && line_mask live),
          (fun () -> r *. Float.pow c (r -. 1.0)),
          read_write_quorums )
  in
  let min_quorums =
    Thresh.capped ~name:"Grid" count (fun () -> quorums ~rows ~cols)
  in
  (* Up to 62 processes both checks run the mask kernel, which
     allocates nothing. *)
  let avail, avail_mask =
    if n <= Bitset.bits_per_word then
      ((fun live -> avail_mask (Bitset.to_mask live)), Some avail_mask)
    else (avail, None)
  in
  let select rng ~live =
    let live_in_row row =
      List.filter (Bitset.mem live) (row_elements ~cols row)
    in
    let pick_cover () =
      let rec collect row acc =
        if row = rows then Some acc
        else
          match live_in_row row with
          | [] -> None
          | picks -> collect (row + 1) (Rng.pick rng (Array.of_list picks) :: acc)
      in
      collect 0 []
    in
    let pick_line () =
      let full_rows =
        List.filter
          (fun row -> List.length (live_in_row row) = cols)
          (List.init rows (fun i -> i))
      in
      match full_rows with
      | [] -> None
      | _ ->
          Some (row_elements ~cols (Rng.pick rng (Array.of_list full_rows)))
    in
    match mode with
    | Read -> Option.map (Bitset.of_list n) (pick_cover ())
    | Write -> Option.map (Bitset.of_list n) (pick_line ())
    | Read_write ->
        (match (pick_line (), pick_cover ()) with
        | Some l, Some c -> Some (Bitset.of_list n (l @ c))
        | _ -> None)
  in
  System.make ~name ~n ~avail ?avail_mask
    ~avail_counts:(fun () -> avail_counts ~rows ~cols mode)
    ~min_quorums ~select ()

let t_grid ?name ~rows ~cols () =
  check ~rows ~cols;
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "t-grid(%dx%d)" rows cols
  in
  Wall.system ~name (Array.make rows cols)

let failure_probability_hetero ~rows ~cols mode ~p_of =
  check ~rows ~cols;
  (* Per row: probability it is non-empty / fully live. *)
  let row_stats row =
    let dead = ref 1.0 and live = ref 1.0 in
    for col = 0 to cols - 1 do
      let pe = p_of (element ~cols ~row ~col) in
      dead := !dead *. pe;
      live := !live *. (1.0 -. pe)
    done;
    (1.0 -. !dead, !live)
  in
  let cover = ref 1.0 and no_line = ref 1.0 and joint = ref 1.0 in
  for row = 0 to rows - 1 do
    let nonempty, full = row_stats row in
    cover := !cover *. nonempty;
    no_line := !no_line *. (1.0 -. full);
    joint := !joint *. (nonempty -. full)
  done;
  match mode with
  | Read -> 1.0 -. !cover
  | Write -> !no_line
  | Read_write -> 1.0 -. (!cover -. !joint)

let failure_probability ~rows ~cols mode ~p =
  failure_probability_hetero ~rows ~cols mode ~p_of:(fun _ -> p)
