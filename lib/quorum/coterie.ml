let all_intersect quorums =
  let rec loop = function
    | [] -> true
    | q :: rest ->
        List.for_all (fun r -> Bitset.intersects q r) rest && loop rest
  in
  loop quorums

let is_antichain quorums =
  let rec loop = function
    | [] -> true
    | q :: rest ->
        List.for_all
          (fun r ->
            (not (Bitset.subset q r)) && not (Bitset.subset r q))
          rest
        && loop rest
  in
  loop quorums

let is_coterie quorums =
  quorums <> [] && all_intersect quorums && is_antichain quorums

let minimize quorums =
  (* Keep a quorum unless some *other* occurrence is a (possibly equal,
     earlier) subset of it. *)
  let rec loop kept = function
    | [] -> List.rev kept
    | q :: rest ->
        let dominated_by r = Bitset.subset r q in
        if List.exists dominated_by kept || List.exists dominated_by rest
        then loop kept rest
        else loop (q :: kept) rest
  in
  (* A duplicate pair would drop both arms above; dedupe first. *)
  let dedup =
    List.fold_left
      (fun acc q ->
        if List.exists (Bitset.equal q) acc then acc else q :: acc)
      [] quorums
    |> List.rev
  in
  loop [] dedup

let dominates c d =
  let c = minimize c and d = minimize d in
  let covered q = List.exists (fun r -> Bitset.subset r q) c in
  List.for_all covered d
  && not
       (List.length c = List.length d
       && List.for_all (fun q -> List.exists (Bitset.equal q) d) c)

(* An available [mask] is minimal iff removing any single member
   (from bit [b] on) breaks availability. *)
let rec minimal avail_mask n mask b =
  if b = n then true
  else if mask land (1 lsl b) <> 0 && avail_mask (mask lxor (1 lsl b)) then
    false
  else minimal avail_mask n mask (b + 1)

let minimal_of_avail ~n avail_mask =
  if n > 22 then
    invalid_arg "Coterie.minimal_of_avail: universe too large (n > 22)";
  let result = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    if avail_mask mask && minimal avail_mask n mask 0 then
      result := Bitset.of_mask ~n mask :: !result
  done;
  List.rev !result

let is_non_dominated ~n avail_mask =
  if n > 30 then
    invalid_arg "Coterie.is_non_dominated: universe too large (n > 30)";
  let universe = (1 lsl n) - 1 in
  (* Check each bipartition once: masks with bit 0 clear cover every
     unordered pair {S, complement}. *)
  let rec scan mask =
    if mask > universe then true
    else if
      mask land 1 = 0
      && (not (avail_mask mask))
      && not (avail_mask (universe lxor mask))
    then false
    else scan (mask + 1)
  in
  scan 0

let transversal_counts ~n avail_mask =
  if n > 30 then
    invalid_arg "Coterie.transversal_counts: universe too large (n > 30)";
  let counts = Array.make (n + 1) 0.0 in
  (* A dead-set D is a transversal iff the live-set U \ D is
     unavailable; scan live-sets and bucket by dead cardinality. *)
  for live = 0 to (1 lsl n) - 1 do
    if not (avail_mask live) then begin
      let dead = n - Bitset.popcount live in
      counts.(dead) <- counts.(dead) +. 1.0
    end
  done;
  counts
