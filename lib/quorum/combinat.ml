let iter_ksubset_masks ~n ~k f =
  if n > 62 then invalid_arg "Combinat.iter_ksubset_masks: n > 62";
  if k < 0 || k > n then invalid_arg "Combinat.iter_ksubset_masks: bad k";
  if k = 0 then f 0
  else begin
    let limit = 1 lsl n in
    (* Gosper's hack: next mask with the same popcount. *)
    let rec loop mask =
      if mask < limit then begin
        f mask;
        let c = mask land -mask in
        let r = mask + c in
        let next = (((r lxor mask) lsr 2) / c) lor r in
        if next > mask then loop next
      end
    in
    loop ((1 lsl k) - 1)
  end

let rec ksubsets l k =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (ksubsets rest (k - 1)) @ ksubsets rest k

let rec product = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = product rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

let choose_count n k =
  if n > 62 then invalid_arg "Combinat.choose_count: n > 62";
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    (* i divides acc * (n - k + i); dividing first keeps every product
       at most the next binomial, which fits for n <= 62. *)
    let rec loop i acc =
      if i > k then acc
      else
        let g = gcd acc i in
        loop (i + 1) (acc / g * ((n - k + i) / (i / g)))
    in
    loop 1 1
  end
