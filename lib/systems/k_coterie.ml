module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng

let degree quorums =
  if quorums = [] then invalid_arg "K_coterie.degree: empty";
  (* Largest pairwise-disjoint family: depth-first packing. *)
  let arr = Array.of_list quorums in
  let m = Array.length arr in
  let best = ref 0 in
  let rec pack i chosen count =
    if count + (m - i) <= !best then ()
    else if i = m then best := max !best count
    else begin
      let q = arr.(i) in
      if List.for_all (fun c -> not (Bitset.intersects q c)) chosen then
        pack (i + 1) (q :: chosen) (count + 1);
      pack (i + 1) chosen count
    end
  in
  pack 0 [] 0;
  !best

let is_k_coterie ~k quorums = degree quorums = k

let k_majority ~n ~k =
  if k < 1 then invalid_arg "K_coterie.k_majority: k >= 1 required";
  let threshold = (n / (k + 1)) + 1 in
  if k * threshold > n then
    invalid_arg "K_coterie.k_majority: k quorums do not fit (k-availability)";
  let avail live = Bitset.cardinal live >= threshold in
  let avail_mask =
    if n <= Bitset.bits_per_word then
      Some (fun live -> Bitset.popcount live >= threshold)
    else None
  in
  let min_quorums =
    if n <= 22 && Quorum.Combinat.choose_count n threshold <= 500_000 then
      Some
        (lazy
          (let acc = ref [] in
           Quorum.Combinat.iter_ksubset_masks ~n ~k:threshold (fun m ->
               acc := Bitset.of_mask ~n m :: !acc);
           List.rev !acc))
    else None
  in
  let select rng ~live =
    let members = Array.of_list (Bitset.to_list live) in
    if Array.length members < threshold then None
    else begin
      Rng.shuffle_in_place rng members;
      let quorum = Bitset.create n in
      for i = 0 to threshold - 1 do
        Bitset.add quorum members.(i)
      done;
      Some quorum
    end
  in
  System.make
    ~name:(Printf.sprintf "k-majority(%d,k=%d)" n k)
    ~n ~avail ?avail_mask ?min_quorums ~select ()

(* Some copy from [i] on of the mask [live] is available: copy [i]
   holds bits [i * bn] to [i * bn + bn - 1]. *)
let rec some_copy base_mask ~bn ~k live i =
  i < k
  && (base_mask ((live lsr (i * bn)) land ((1 lsl bn) - 1))
     || some_copy base_mask ~bn ~k live (i + 1))

let copies ~k (base : System.t) =
  if k < 1 then invalid_arg "K_coterie.copies: k >= 1 required";
  let bn = base.System.n in
  let n = k * bn in
  let slice live i =
    let s = Bitset.create bn in
    for e = 0 to bn - 1 do
      if Bitset.mem live ((i * bn) + e) then Bitset.add s e
    done;
    s
  in
  let avail, avail_mask =
    if n <= Bitset.bits_per_word then begin
      let base_mask = System.avail_mask_exn base in
      let avail_mask live = some_copy base_mask ~bn ~k live 0 in
      ((fun live -> avail_mask (Bitset.to_mask live)), Some avail_mask)
    end
    else
      let rec any live i =
        i < k && (base.System.avail (slice live i) || any live (i + 1))
      in
      ((fun live -> any live 0), None)
  in
  let min_quorums =
    match base.System.min_quorums with
    | Some lazy_base ->
        Some
          (lazy
            (let base_quorums = Lazy.force lazy_base in
             List.concat
               (List.init k (fun i ->
                    List.map
                      (fun q ->
                        Bitset.of_list n
                          (List.map (fun e -> (i * bn) + e) (Bitset.to_list q)))
                      base_quorums))))
    | None -> None
  in
  let select rng ~live =
    (* Pick a random available group, so parallel users land on
       different groups with high probability. *)
    let order = Array.init k (fun i -> i) in
    Rng.shuffle_in_place rng order;
    let rec try_groups idx =
      if idx = k then None
      else begin
        let g = order.(idx) in
        match base.System.select rng ~live:(slice live g) with
        | Some q ->
            Some
              (Bitset.of_list n
                 (List.map (fun e -> (g * bn) + e) (Bitset.to_list q)))
        | None -> try_groups (idx + 1)
      end
    in
    try_groups 0
  in
  System.make
    ~name:(Printf.sprintf "copies(%d,%s)" k base.name)
    ~n ~avail ?avail_mask ?min_quorums ~select ()
