(* The quorums share one universe of at most 62 processes, so their
   masks stand for them.  The pairwise checks below then compare ints:
   [Bitset.intersects] and [Bitset.subset] allocate a closure per call,
   and a quadratic check over a grown h-triang's tens of thousands of
   quorums spent most of its time there. *)
let maskable quorums =
  match quorums with
  | q :: _ ->
      Bitset.capacity q <= Bitset.bits_per_word
      && List.for_all (fun r -> Bitset.capacity r = Bitset.capacity q) quorums
  | [] -> false

let masks quorums = Array.of_list (List.map Bitset.to_mask quorums)

(* No pair [i < j] of [masks] is disjoint ([subsets = false]), or
   nested or equal ([subsets = true]).  Plain loops over ints, one per
   check, since tens of thousands of quorums make billions of pairs. *)
let no_pair ~subsets masks =
  let len = Array.length masks in
  let ok = ref true and i = ref 0 in
  while !ok && !i < len do
    let a = masks.(!i) in
    let j = ref (!i + 1) in
    if subsets then
      while !ok && !j < len do
        let common = a land masks.(!j) in
        if common = a || common = masks.(!j) then ok := false;
        incr j
      done
    else
      while !ok && !j < len do
        if a land masks.(!j) = 0 then ok := false;
        incr j
      done;
    incr i
  done;
  !ok

let all_intersect quorums =
  if maskable quorums then no_pair ~subsets:false (masks quorums)
  else
    let rec loop = function
      | [] -> true
      | q :: rest ->
          List.for_all (fun r -> Bitset.intersects q r) rest && loop rest
    in
    loop quorums

let is_antichain quorums =
  if maskable quorums then no_pair ~subsets:true (masks quorums)
  else
    let rec loop = function
      | [] -> true
      | q :: rest ->
          List.for_all
            (fun r -> (not (Bitset.subset q r)) && not (Bitset.subset r q))
            rest
          && loop rest
    in
    loop quorums

let is_coterie quorums =
  quorums <> [] && all_intersect quorums && is_antichain quorums

(* Keep a quorum unless some *other* occurrence is a (possibly equal,
   earlier) subset of it. *)
let minimize_list quorums =
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

(* [minimize_list] on [Bitset.to_mask] values: the same first
   occurrences, then the same test of each against the ones kept
   before it and every one after it. *)
let minimize_masks quorums =
  let seen = Hashtbl.create 64 in
  let firsts =
    List.filter
      (fun q ->
        let m = Bitset.to_mask q in
        (not (Hashtbl.mem seen m)) && (Hashtbl.add seen m (); true))
      quorums
  in
  let masks = masks firsts in
  let len = Array.length masks in
  let kept = Array.make len false in
  (* Some quorum [j] from [j] to [stop], kept unless [all], is a subset
     of quorum [i]. *)
  let rec dominated i ~all j stop =
    j < stop
    && (((all || kept.(j)) && masks.(j) land masks.(i) = masks.(j))
       || dominated i ~all (j + 1) stop)
  in
  for i = 0 to len - 1 do
    kept.(i) <-
      not (dominated i ~all:false 0 i || dominated i ~all:true (i + 1) len)
  done;
  List.filteri (fun i _ -> kept.(i)) firsts

let minimize quorums =
  if maskable quorums then minimize_masks quorums else minimize_list quorums

let dominates c d =
  let c = minimize c and d = minimize d in
  let covered q = List.exists (fun r -> Bitset.subset r q) c in
  List.for_all covered d
  && not
       (List.length c = List.length d
       && List.for_all (fun q -> List.exists (Bitset.equal q) d) c)

(* The monotone subcube walk.  A subcube is a fixed part [base] plus
   any subset of the low [bits] bits (none of which [base] sets): its
   bottom is [base], its top [base lor (2^bits - 1)].  Availability is
   monotone, so a subcube whose top fails fails entirely, and one whose
   bottom is available is available entirely.  Only a subcube with a
   failing bottom and an available top is split, on its highest free
   bit, without-bit half first; each half inherits one known end from
   its parent, so one [avail] call per half decides or splits it.
   Subcubes of at most [leaf_bits] free bits are scanned straight: near
   the boundary the halves rarely decide, and a loop costs less than
   the calls it would save.  [k] is the popcount of [base]. *)
let leaf_bits = 3

(* Popcount of a leaf's free part, a value below 8 (so [leaf_bits]
   <= 3): a table of two bits per value. *)
let low_popcount v = (0xE994 lsr (2 * v)) land 3

let rec split avail ~fail ~found base bits k =
  if bits <= leaf_bits then begin
    let top = base lor ((1 lsl bits) - 1) in
    fail 0 k;
    for m = base + 1 to top - 1 do
      if avail m then found m else fail 0 (k + low_popcount (m lxor base))
    done;
    found top
  end
  else begin
    let bits = bits - 1 in
    let half = 1 lsl bits in
    if avail (base lor (half - 1)) then split avail ~fail ~found base bits k
    else fail bits k;
    let with_bit = base lor half in
    if avail with_bit then found with_bit
    else split avail ~fail ~found with_bit bits (k + 1)
  end

let walk avail ~base ~bits ~fail ~found =
  let k = Bitset.popcount base in
  if not (avail (base lor ((1 lsl bits) - 1))) then fail bits k
  else if avail base then found base
  else split avail ~fail ~found base bits k

(* An available [mask] is minimal iff removing any single member
   (from bit [b] on) breaks availability. *)
let rec minimal avail_mask n mask b =
  if b = n then true
  else if mask land (1 lsl b) <> 0 && avail_mask (mask lxor (1 lsl b)) then
    false
  else minimal avail_mask n mask (b + 1)

(* Within an all-available subcube only the bottom can be minimal, and
   the walk visits subcubes in ascending mask order. *)
let minimal_of_avail ~n avail_mask =
  if n > 22 then
    invalid_arg "Coterie.minimal_of_avail: universe too large (n > 22)";
  let result = ref [] in
  walk avail_mask ~base:0 ~bits:n
    ~fail:(fun _ _ -> ())
    ~found:(fun mask ->
      if mask <> 0 && minimal avail_mask n mask 0 then
        result := Bitset.of_mask ~n mask :: !result);
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
