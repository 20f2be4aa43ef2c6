module Bitset = Quorum.Bitset
module System = Quorum.System

let universe_size ~rows = rows * (rows + 1) / 2
let element ~row ~col = (row * (row + 1) / 2) + col

let check_rows rows = if rows < 1 then invalid_arg "Y_system: rows >= 1"

(* Hexagonal adjacency on the triangular board: same-row neighbours,
   the two cells above, the two cells below. *)
let neighbours rows row col =
  let candidates =
    [
      (row, col - 1);
      (row, col + 1);
      (row - 1, col - 1);
      (row - 1, col);
      (row + 1, col);
      (row + 1, col + 1);
    ]
  in
  List.filter (fun (r, c) -> r >= 0 && r < rows && c >= 0 && c <= r) candidates
  |> List.map (fun (r, c) -> element ~row:r ~col:c)

let coords rows =
  List.concat
    (List.init rows (fun r -> List.init (r + 1) (fun c -> (r, c))))

let side_sets rows =
  let left = List.map (fun r -> element ~row:r ~col:0) (List.init rows Fun.id)
  and right = List.map (fun r -> element ~row:r ~col:r) (List.init rows Fun.id)
  and bottom =
    List.map (fun c -> element ~row:(rows - 1) ~col:c) (List.init rows Fun.id)
  in
  (left, right, bottom)

(* Mask-based availability: grow components from live left-side seeds
   by repeated dilation and test the three-side condition.  [nbr.(e)]
   is the neighbourhood mask of process [e]. *)
type masks = { nbr : int array; left_m : int; right_m : int; bottom_m : int }

(* The union of the neighbourhoods of the processes in [f]. *)
let rec gather nbr f acc =
  if f = 0 then acc
  else begin
    let bit = f land -f in
    let i = Bitset.popcount (bit - 1) in
    gather nbr (f lxor bit) (acc lor nbr.(i))
  end

(* Dilate a component to its fixpoint within [live]. *)
let rec grow nbr live comp frontier =
  if frontier = 0 then comp
  else begin
    let next = gather nbr frontier 0 land live land lnot comp in
    grow nbr live (comp lor next) next
  end

let rec try_seeds m live seeds visited =
  if seeds = 0 then false
  else begin
    let seed = seeds land -seeds in
    let comp = grow m.nbr live seed seed in
    if comp land m.right_m <> 0 && comp land m.bottom_m <> 0 then true
    else begin
      let visited = visited lor comp in
      try_seeds m live (seeds land lnot visited) visited
    end
  end

let avail_of_masks m live =
  live land m.left_m <> 0
  && live land m.right_m <> 0
  && live land m.bottom_m <> 0
  && try_seeds m live (live land m.left_m) 0

let make_avail_mask rows =
  let n = universe_size ~rows in
  let nbr = Array.make n 0 in
  List.iter
    (fun (r, c) ->
      let e = element ~row:r ~col:c in
      List.iter
        (fun e' -> nbr.(e) <- nbr.(e) lor (1 lsl e'))
        (neighbours rows r c))
    (coords rows);
  let mask_of = List.fold_left (fun acc e -> acc lor (1 lsl e)) 0 in
  let left, right, bottom = side_sets rows in
  let m =
    {
      nbr;
      left_m = mask_of left;
      right_m = mask_of right;
      bottom_m = mask_of bottom;
    }
  in
  avail_of_masks m

let make_avail rows =
  let n = universe_size ~rows in
  let adj = Array.make n [||] in
  List.iter
    (fun (r, c) ->
      adj.(element ~row:r ~col:c) <-
        Array.of_list (neighbours rows r c))
    (coords rows);
  let left, right, bottom = side_sets rows in
  let on_right = Array.make n false and on_bottom = Array.make n false in
  List.iter (fun e -> on_right.(e) <- true) right;
  List.iter (fun e -> on_bottom.(e) <- true) bottom;
  fun live ->
    let visited = Array.make n false in
    let component seed =
      (* DFS collecting side contacts. *)
      let stack = ref [ seed ] in
      visited.(seed) <- true;
      let touches_right = ref on_right.(seed)
      and touches_bottom = ref on_bottom.(seed) in
      let rec walk () =
        match !stack with
        | [] -> !touches_right && !touches_bottom
        | v :: rest ->
            stack := rest;
            Array.iter
              (fun w ->
                if (not visited.(w)) && Bitset.mem live w then begin
                  visited.(w) <- true;
                  if on_right.(w) then touches_right := true;
                  if on_bottom.(w) then touches_bottom := true;
                  stack := w :: !stack
                end)
              adj.(v);
            walk ()
      in
      walk ()
    in
    List.exists
      (fun seed ->
        Bitset.mem live seed && (not visited.(seed)) && component seed)
      left

let system ?name ~rows () =
  check_rows rows;
  let n = universe_size ~rows in
  let name =
    match name with Some s -> s | None -> Printf.sprintf "y(%d)" n
  in
  (* Up to 62 processes both checks run the mask kernel, which
     allocates nothing. *)
  let avail, avail_mask =
    if n <= Bitset.bits_per_word then begin
      let avail_mask = make_avail_mask rows in
      ((fun live -> avail_mask (Bitset.to_mask live)), Some avail_mask)
    end
    else (make_avail rows, None)
  in
  let select rng ~live = System.shrink_select avail rng ~live in
  let min_quorums =
    if n <= 22 then
      Some
        (lazy
          (Quorum.Coterie.minimal_of_avail ~n
             (match avail_mask with Some f -> f | None -> assert false)))
    else None
  in
  System.make ~name ~n ~avail ?avail_mask ?min_quorums ~select ()
