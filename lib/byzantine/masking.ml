module Bitset = Quorum.Bitset
module System = Quorum.System

let min_pairwise_intersection quorums =
  match quorums with
  | [] -> invalid_arg "Masking: empty quorum list"
  | [ q ] -> Bitset.cardinal q
  | _ ->
      let rec scan best = function
        | [] -> best
        | q :: rest ->
            let best =
              List.fold_left
                (fun acc r ->
                  min acc (Bitset.cardinal (Bitset.inter q r)))
                best rest
            in
            scan best rest
      in
      scan max_int quorums

let is_dissemination ~f quorums =
  min_pairwise_intersection quorums >= f + 1

let is_masking ~f quorums =
  min_pairwise_intersection quorums >= (2 * f) + 1

let tolerable_f quorums = (min_pairwise_intersection quorums - 1) / 2

let crash_available ~f (s : System.t) =
  if f < 0 then invalid_arg "Masking.crash_available: f < 0";
  if f > s.n then false
  else begin
    let avail = System.avail_mask_exn s in
    let universe = (1 lsl s.n) - 1 in
    let ok = ref true in
    Quorum.Combinat.iter_ksubset_masks ~n:s.n ~k:f (fun dead ->
        if !ok && not (avail (universe lxor dead)) then ok := false);
    !ok
  end

let majority_masking ~n ~f =
  if f < 0 then invalid_arg "Masking.majority_masking: f < 0";
  if n < (4 * f) + 1 then
    invalid_arg "Masking.majority_masking: needs n >= 4f + 1";
  let threshold = (n + (2 * f) + 1 + 1) / 2 in
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
  (* Selection: a random minimal-size subset of the live processes. *)
  let select rng ~live =
    let members = Array.of_list (Bitset.to_list live) in
    if Array.length members < threshold then None
    else begin
      Quorum.Rng.shuffle_in_place rng members;
      let quorum = Bitset.create n in
      for i = 0 to threshold - 1 do
        Bitset.add quorum members.(i)
      done;
      Some quorum
    end
  in
  System.make
    ~name:(Printf.sprintf "masking(%d,f=%d)" n f)
    ~n ~avail ?avail_mask ?min_quorums ~select ()

(* Every copy from [i] on of the mask [live] is available: copy [i]
   holds bits [i * bn] to [i * bn + bn - 1]. *)
let rec every_copy base_mask ~bn ~k live i =
  i = k
  || (base_mask ((live lsr (i * bn)) land ((1 lsl bn) - 1))
     && every_copy base_mask ~bn ~k live (i + 1))

let boost ~k (base : System.t) =
  if k <= 0 then invalid_arg "Masking.boost: k <= 0";
  let bn = base.System.n in
  let n = k * bn in
  (* Copy [i]''s slice of a live set, as a base-universe bitset. *)
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
      let avail_mask live = every_copy base_mask ~bn ~k live 0 in
      ((fun live -> avail_mask (Bitset.to_mask live)), Some avail_mask)
    end
    else
      let rec all live i =
        i = k || (base.System.avail (slice live i) && all live (i + 1))
      in
      ((fun live -> all live 0), None)
  in
  let min_quorums =
    match base.System.min_quorums with
    | Some lazy_base ->
        Some
          (lazy
            (let base_quorums = Lazy.force lazy_base in
             let count = List.length base_quorums in
             let rec power acc i = if i = 0 then acc else power (acc * count) (i - 1) in
             if power 1 k > 200_000 then
               invalid_arg "Masking.boost: quorum product too large to list"
             else begin
               let copies =
                 List.init k (fun i ->
                     List.map
                       (fun q ->
                         List.map (fun e -> (i * bn) + e) (Bitset.to_list q))
                       base_quorums)
               in
               Quorum.Combinat.product copies
               |> List.map (fun parts -> Bitset.of_list n (List.concat parts))
             end))
    | None -> None
  in
  let select rng ~live =
    let rec gather i acc =
      if i = k then Some acc
      else
        match base.System.select rng ~live:(slice live i) with
        | None -> None
        | Some q ->
            gather (i + 1)
              (Bitset.fold (fun e l -> ((i * bn) + e) :: l) q acc)
    in
    match gather 0 [] with
    | None -> None
    | Some elements -> Some (Bitset.of_list n elements)
  in
  System.make
    ~name:(Printf.sprintf "boost(%d,%s)" k base.name)
    ~n ~avail ?avail_mask ?min_quorums ~select ()
