module Bitset = Quorum.Bitset
module System = Quorum.System

let universe_size ~d = 2 * d * (d + 1)

let check_d d = if d < 1 then invalid_arg "Paths: d >= 1 required"

let horizontal ~d ~row ~col =
  if row < 0 || row > d || col < 0 || col >= d then
    invalid_arg "Paths.horizontal";
  (row * d) + col

let vertical ~d ~row ~col =
  if row < 0 || row >= d || col < 0 || col > d then
    invalid_arg "Paths.vertical";
  ((d + 1) * d) + (row * (d + 1)) + col

(* Primal graph: vertices (r, c) with 0 <= r, c <= d, indexed
   r * (d+1) + c.  Each adjacency entry is (edge id, neighbour). *)
let primal_adjacency d =
  let vid r c = (r * (d + 1)) + c in
  let adj = Array.make ((d + 1) * (d + 1)) [] in
  let link v e w =
    adj.(v) <- (e, w) :: adj.(v);
    adj.(w) <- (e, v) :: adj.(w)
  in
  for r = 0 to d do
    for c = 0 to d - 1 do
      link (vid r c) (horizontal ~d ~row:r ~col:c) (vid r (c + 1))
    done
  done;
  for r = 0 to d - 1 do
    for c = 0 to d do
      link (vid r c) (vertical ~d ~row:r ~col:c) (vid (r + 1) c)
    done
  done;
  Array.map Array.of_list adj

(* Dual graph for top-bottom crossings: faces TOP (0), BOTTOM (1) and
   the d*d cells; each dual edge is labelled with the primal edge it
   crosses. *)
let dual_adjacency d =
  let fid r c = 2 + (r * d) + c in
  let adj = Array.make (2 + (d * d)) [] in
  let link v e w =
    adj.(v) <- (e, w) :: adj.(v);
    adj.(w) <- (e, v) :: adj.(w)
  in
  for c = 0 to d - 1 do
    link 0 (horizontal ~d ~row:0 ~col:c) (fid 0 c);
    link (fid (d - 1) c) (horizontal ~d ~row:d ~col:c) 1
  done;
  for r = 0 to d - 2 do
    for c = 0 to d - 1 do
      link (fid r c) (horizontal ~d ~row:(r + 1) ~col:c) (fid (r + 1) c)
    done
  done;
  for r = 0 to d - 1 do
    for c = 0 to d - 2 do
      link (fid r c) (vertical ~d ~row:r ~col:(c + 1)) (fid r (c + 1))
    done
  done;
  Array.map Array.of_list adj

(* Depth-first reachability from [sources] to a vertex satisfying
   [is_target], walking only edges whose label is in [live].  Scratch
   arrays are owned by the caller, and every helper takes what it
   reads as an argument, so a search allocates nothing. *)
let push visited stack top v =
  if visited.(v) then top
  else begin
    visited.(v) <- true;
    stack.(top) <- v;
    top + 1
  end

let rec push_all visited stack top = function
  | [] -> top
  | v :: rest -> push_all visited stack (push visited stack top v) rest

(* Push the neighbours of [v] across live edges, from adjacency entry
   [i] on. *)
let rec push_live adj live visited stack top v i =
  if i = Array.length adj.(v) then top
  else begin
    let e, w = adj.(v).(i) in
    let top = if Bitset.mem live e then push visited stack top w else top in
    push_live adj live visited stack top v (i + 1)
  end

let rec search adj live visited stack top is_target =
  top > 0
  &&
  let v = stack.(top - 1) in
  is_target v
  || search adj live visited stack
       (push_live adj live visited stack (top - 1) v 0)
       is_target

let reaches adj ~visited ~stack ~live ~sources ~is_target =
  Array.fill visited 0 (Array.length visited) false;
  search adj live visited stack (push_all visited stack 0 sources) is_target

let is_bottom v = v = 1

let system ?name ~d () =
  check_d d;
  let n = universe_size ~d in
  let name =
    match name with Some s -> s | None -> Printf.sprintf "paths(%d)" n
  in
  let primal = primal_adjacency d in
  let dual = dual_adjacency d in
  let nv = Array.length primal and nf = Array.length dual in
  let left = List.init (d + 1) (fun r -> r * (d + 1)) in
  let is_right v = v mod (d + 1) = d in
  (* One DFS scratch per domain (not per system): these checks are
     handed to the analysis layer, which may call them from several
     pool domains at once.  Domain-local buffers keep them re-entrant
     without allocating on every call; the mask path copies its mask
     into the domain's live set. *)
  let scratch =
    Domain.DLS.new_key (fun () ->
        ( Array.make nv false,
          Array.make nv 0,
          Array.make nf false,
          Array.make nf 0,
          Bitset.create n ))
  in
  let avail live =
    let visited_v, stack_v, visited_f, stack_f, _ = Domain.DLS.get scratch in
    reaches primal ~visited:visited_v ~stack:stack_v ~live ~sources:left
      ~is_target:is_right
    && reaches dual ~visited:visited_f ~stack:stack_f ~live ~sources:[ 0 ]
         ~is_target:is_bottom
  in
  let avail_mask =
    if n <= Bitset.bits_per_word then
      Some
        (fun mask ->
          let _, _, _, _, live = Domain.DLS.get scratch in
          Bitset.blit_mask live mask;
          avail live)
    else None
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
