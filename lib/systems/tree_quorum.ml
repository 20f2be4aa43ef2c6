module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng

let size_of_height height =
  if height < 1 then invalid_arg "Tree_quorum: height must be >= 1";
  (1 lsl height) - 1

let mask_mem mask i = mask land (1 lsl i) <> 0

(* Node [v] of an [n]-node tree is live-rooted: [mem live] is
   [Bitset.mem] or [mask_mem], top-level functions, so a check builds
   no closure. *)
let rec ok mem live n v =
  let root = mem live v in
  if (2 * v) + 1 >= n then root
  else begin
    let l = ok mem live n ((2 * v) + 1) and r = ok mem live n ((2 * v) + 2) in
    (root && (l || r)) || (l && r)
  end

(* Exact availability counts: [failure_probability_hetero]'s recursion
   over count polynomials.  The two subtrees of a node share no process
   and have one shape, so with (T, A) a child's total and available
   counts and U = T - A, a live root needs either child, T^2 - U^2,
   and a dead root both, A^2: the node is available on
   x (T^2 - U^2) + A^2 of its (1 + x) T^2 live sets.  A leaf is
   (1 + x, x).  A change to the float recursion changes this too. *)
let avail_counts ~height =
  let open Quorum.Int_poly in
  let root = monomial 1 in
  let rec up h (total, avail) =
    if h = height then coeffs ~n:(size_of_height height) avail
    else begin
      let dead = sub total avail and both = mul total total in
      up (h + 1)
        ( mul (binomial 1) both,
          add (mul root (sub both (mul dead dead))) (mul avail avail) )
    end
  in
  up 1 (binomial 1, root)

let system ?name ~height () =
  let n = size_of_height height in
  let name =
    match name with Some s -> s | None -> Printf.sprintf "tree(%d)" n
  in
  let is_leaf v = (2 * v) + 1 >= n in
  let avail live = ok Bitset.mem live n 0 in
  let avail_mask =
    if n <= Bitset.bits_per_word then Some (fun live -> ok mask_mem live n 0)
    else None
  in
  let rec quorums v =
    if is_leaf v then [ [ v ] ]
    else begin
      let l = quorums ((2 * v) + 1) and r = quorums ((2 * v) + 2) in
      List.map (fun q -> v :: q) (l @ r)
      @ List.concat_map (fun ql -> List.map (fun qr -> ql @ qr) r) l
    end
  in
  let min_quorums =
    lazy
      (Quorum.Coterie.minimize (List.map (Bitset.of_list n) (quorums 0)))
  in
  (* Prefer the cheap root-path quorums, falling back to both-children
     recursion when a node is dead. *)
  let rec select_at rng live v =
    if is_leaf v then if Bitset.mem live v then Some [ v ] else None
    else begin
      let l = (2 * v) + 1 and r = (2 * v) + 2 in
      let first, second = if Rng.bool rng then (l, r) else (r, l) in
      if Bitset.mem live v then
        match select_at rng live first with
        | Some q -> Some (v :: q)
        | None ->
            (match select_at rng live second with
            | Some q -> Some (v :: q)
            | None -> both rng live l r)
      else both rng live l r
    end
  and both rng live l r =
    match (select_at rng live l, select_at rng live r) with
    | Some ql, Some qr -> Some (ql @ qr)
    | _ -> None
  in
  let select rng ~live =
    Option.map (Bitset.of_list n) (select_at rng live 0)
  in
  System.make ~name ~n ~avail ?avail_mask
    ~avail_counts:(fun () -> avail_counts ~height)
    ~min_quorums ~select ()

let failure_probability_hetero ~height ~p_of =
  let n = size_of_height height in
  let rec ok_prob v =
    let q = 1.0 -. p_of v in
    if (2 * v) + 1 >= n then q
    else begin
      let l = ok_prob ((2 * v) + 1) and r = ok_prob ((2 * v) + 2) in
      let either = l +. r -. (l *. r) in
      (q *. either) +. ((1.0 -. q) *. l *. r)
    end
  in
  1.0 -. ok_prob 0

let failure_probability ~height ~p =
  failure_probability_hetero ~height ~p_of:(fun _ -> p)
