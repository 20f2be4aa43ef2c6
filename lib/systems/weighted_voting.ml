module Bitset = Quorum.Bitset
module System = Quorum.System

let check votes =
  if Array.length votes = 0 then invalid_arg "Weighted_voting: no processes";
  Array.iter
    (fun v -> if v < 0 then invalid_arg "Weighted_voting: negative votes")
    votes;
  let total = Array.fold_left ( + ) 0 votes in
  if total = 0 then invalid_arg "Weighted_voting: zero total votes";
  total

(* [Array.sort (fun a b -> compare votes.(b) votes.(a))], the heap sort
   of the standard library written out over process ids: the same
   comparisons and moves, so tied processes land where [Array.sort] puts
   them, but no closures and no exception per sift-down.  [before x y]
   is that comparison's [cmp x y < 0]. *)
let[@inline] before votes x y = votes.(x) > votes.(y)

(* The child of heap node [i] that sorts last among the first [l]
   slots, or [-1] when [i] has no child there. *)
let maxson votes a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if before votes a.(i31) a.(i31 + 1) then i31 + 1 else i31 in
    if before votes a.(x) a.(i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && before votes a.(i31) a.(i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle votes a l i e =
  let j = maxson votes a l i in
  if j >= 0 && before votes e a.(j) then begin
    a.(i) <- a.(j);
    trickle votes a l j e
  end
  else a.(i) <- e

let rec bubble votes a l i =
  let j = maxson votes a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble votes a l j
  end

let rec trickleup votes a i e =
  let father = (i - 1) / 3 in
  if before votes a.(father) e then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup votes a father e else a.(0) <- e
  end
  else a.(i) <- e

let sort_by_votes votes a =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle votes a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup votes a (bubble votes a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Vote classes of a universe of at most 62 processes: the mask of
   each run of equal votes, in process order, with that vote.  One O(n)
   pass; a majority has at most two runs. *)
let vote_classes votes =
  let n = Array.length votes in
  let runs = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || votes.(i) <> votes.(i - 1) then incr runs
  done;
  let values = Array.make !runs 0 and masks = Array.make !runs 0 in
  let c = ref (-1) in
  for i = 0 to n - 1 do
    if i = 0 || votes.(i) <> votes.(i - 1) then begin
      incr c;
      values.(!c) <- votes.(i)
    end;
    masks.(!c) <- masks.(!c) lor (1 lsl i)
  done;
  (values, masks)

(* The votes of the live set [live]: one popcount per class. *)
let mask_votes values masks live =
  let sum = ref 0 in
  for c = 0 to Array.length values - 1 do
    sum := !sum + (values.(c) * Bitset.popcount (live land masks.(c)))
  done;
  !sum

let live_votes votes live =
  let sum = ref 0 in
  for i = 0 to Array.length votes - 1 do
    if Bitset.mem live i then sum := !sum + votes.(i)
  done;
  !sum

(* Exact availability counts: a DP over the processes on (live count,
   live votes), votes capped at [need], the least available sum.
   [dp.(k * (need + 1) + v)] counts the live sets of [k] of the
   processes seen so far holding [v] votes ([need] or more when
   [v = need]).  [k] runs downward, so a process extends each set
   at most once.  It is [failure_probability_hetero]'s vote-sum
   recursion over counts; a change to one changes the other. *)
let avail_counts votes ~total =
  let n = Array.length votes in
  let need = (total / 2) + 1 in
  let width = need + 1 in
  let dp = Array.make ((n + 1) * width) 0 in
  dp.(0) <- 1;
  Array.iteri
    (fun i w ->
      for k = i downto 0 do
        for v = need downto 0 do
          let c = dp.((k * width) + v) in
          if c <> 0 then begin
            let j = ((k + 1) * width) + min need (v + w) in
            dp.(j) <- dp.(j) + c
          end
        done
      done)
    votes;
  Array.init (n + 1) (fun k -> dp.((k * width) + need))

(* The minimal quorums' masks in descending order, by a depth-first
   pass over the votes instead of a walk over the live sets.  It
   decides the processes from the highest index down, absent before
   present, so branches end in ascending mask order.  [present] holds
   the decided processes kept, [sum] their votes and [least] the
   smallest of them; processes [0 .. i-1] are undecided and
   [below.(i)] is their votes.  A branch stops once [present] holds a
   majority: every set under it contains [present], so only [present]
   can be minimal, and is exactly when dropping its smallest vote
   loses the majority.  It also stops once the undecided votes cannot
   make one. *)
let minimal_masks_rev votes ~total =
  let n = Array.length votes in
  let below = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    below.(i + 1) <- below.(i) + votes.(i)
  done;
  let enough sum = 2 * sum > total in
  let found = ref [] in
  let rec decide i present sum least =
    if enough sum then begin
      if not (enough (sum - least)) then found := present :: !found
    end
    else if i > 0 && enough (sum + below.(i)) then begin
      let j = i - 1 in
      decide j present sum least;
      decide j (present lor (1 lsl j)) (sum + votes.(j)) (min least votes.(j))
    end
  in
  decide n 0 0 max_int;
  !found

let system ?name ~votes () =
  let total = check votes in
  let n = Array.length votes in
  let name =
    match name with Some s -> s | None -> Printf.sprintf "voting(%d)" n
  in
  let enough sum = 2 * sum > total in
  (* Both checks allocate nothing: up to 62 processes the live set's
     votes come from the class masks, beyond that bit by bit. *)
  let avail, avail_mask =
    if n <= Bitset.bits_per_word then begin
      let values, masks = vote_classes votes in
      let avail_mask live = enough (mask_votes values masks live) in
      ((fun live -> avail_mask (Bitset.to_mask live)), Some avail_mask)
    end
    else ((fun live -> enough (live_votes votes live)), None)
  in
  let min_quorums =
    lazy
      (if n > 22 then
         invalid_arg "Weighted_voting: quorum enumeration capped at n=22"
       else List.rev_map (Bitset.of_mask ~n) (minimal_masks_rev votes ~total))
  in
  let min_masks =
    if n > 22 then None
    else
      Some (fun () -> Array.of_list (List.rev (minimal_masks_rev votes ~total)))
  in
  (* Greedy selection: highest-vote live processes first, then trimmed
     to a minimal quorum.  Besides the quorum it returns, a call
     allocates the shuffled live members and their by-votes copy. *)
  let select rng ~live =
    let arr = Array.make (Bitset.cardinal live) 0 in
    let k = ref 0 in
    for i = 0 to Bitset.capacity live - 1 do
      if Bitset.mem live i then begin
        arr.(!k) <- i;
        incr k
      end
    done;
    Quorum.Rng.shuffle_in_place rng arr;
    let by_votes = Array.copy arr in
    sort_by_votes votes by_votes;
    let quorum = Bitset.create n in
    let sum = ref 0 and i = ref 0 in
    while (not (enough !sum)) && !i < Array.length by_votes do
      Bitset.add quorum by_votes.(!i);
      sum := !sum + votes.(by_votes.(!i));
      incr i
    done;
    if not (enough !sum) then None
    else begin
      (* Drop members that are not needed, in random order, to reach a
         minimal quorum. *)
      for j = 0 to Array.length arr - 1 do
        let i = arr.(j) in
        if Bitset.mem quorum i && enough (!sum - votes.(i)) then begin
          Bitset.remove quorum i;
          sum := !sum - votes.(i)
        end
      done;
      Some quorum
    end
  in
  (* The DP's table has (n + 1) * (need + 1) entries and grows with
     the votes, not with [n]: the counts are attached only while it
     holds at most 2^min(n, 20) of them, no more than the live sets the
     walk visits and at most 8 MB, so a few huge votes walk instead. *)
  let avail_counts =
    if (total / 2) + 2 <= (1 lsl min n 20) / (n + 1) then
      Some (fun () -> avail_counts votes ~total)
    else None
  in
  System.make ~name ~n ~avail ?avail_mask ?avail_counts ~min_quorums
    ?min_masks ~select ()

let failure_probability_hetero ~votes ~p_of =
  let total = check votes in
  (* dist.(v) = P(live votes = v); one convolution step per process. *)
  let dist = Array.make (total + 1) 0.0 in
  dist.(0) <- 1.0;
  let top = ref 0 in
  Array.iteri
    (fun i v ->
      let p = p_of i in
      let q = 1.0 -. p in
      for s = !top downto 0 do
        let mass = dist.(s) in
        if mass > 0.0 then begin
          dist.(s) <- mass *. p;
          dist.(s + v) <- dist.(s + v) +. (mass *. q)
        end
      done;
      top := !top + v)
    votes;
  let acc = ref 0.0 in
  for s = 0 to total do
    if 2 * s <= total then acc := !acc +. dist.(s)
  done;
  !acc

let failure_probability ~votes ~p =
  failure_probability_hetero ~votes ~p_of:(fun _ -> p)
