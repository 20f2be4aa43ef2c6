type t = { quorums : Bitset.t array; probs : float array }

let make quorums probs =
  if Array.length quorums <> Array.length probs then
    invalid_arg "Strategy.make: length mismatch";
  if Array.length quorums = 0 then invalid_arg "Strategy.make: empty";
  Array.iter
    (fun p -> if p < 0.0 then invalid_arg "Strategy.make: negative weight")
    probs;
  let total = Array.fold_left ( +. ) 0.0 probs in
  if total <= 0.0 then invalid_arg "Strategy.make: weights sum to zero";
  { quorums; probs = Array.map (fun p -> p /. total) probs }

let uniform quorums =
  let quorums = Array.of_list quorums in
  let k = Array.length quorums in
  if k = 0 then invalid_arg "Strategy.uniform: empty";
  { quorums; probs = Array.make k (1.0 /. float_of_int k) }

let universe_size t = Bitset.capacity t.quorums.(0)

let element_loads t =
  let loads = Array.make (universe_size t) 0.0 in
  Array.iteri
    (fun j q ->
      Bitset.iter (fun i -> loads.(i) <- loads.(i) +. t.probs.(j)) q)
    t.quorums;
  loads

let system_load t = Array.fold_left max 0.0 (element_loads t)

let average_quorum_size t =
  let acc = ref 0.0 in
  Array.iteri
    (fun j q ->
      acc := !acc +. (t.probs.(j) *. float_of_int (Bitset.cardinal q)))
    t.quorums;
  !acc

let sample t rng =
  let j = Rng.pick_weighted rng ~weights:t.probs in
  t.quorums.(j)

type empirical = {
  loads : float array;
  max_load : float;
  avg_size : float;
  misses : int;
  trials : int;
}

let empirical_of_select ?live ~n ~trials rng select =
  if trials <= 0 then invalid_arg "Strategy.empirical_of_select: trials";
  let live =
    match live with
    | None -> Bitset.universe n
    | Some l ->
        if Bitset.capacity l <> n then
          invalid_arg "Strategy.empirical_of_select: live universe mismatch";
        l
  in
  let hits = Array.make n 0 in
  let size_sum = ref 0 in
  let misses = ref 0 in
  let successes = ref 0 in
  for _ = 1 to trials do
    match select rng ~live with
    | None -> incr misses
    | Some q ->
        incr successes;
        size_sum := !size_sum + Bitset.cardinal q;
        Bitset.iter (fun i -> hits.(i) <- hits.(i) + 1) q
  done;
  let denom = float_of_int (max 1 !successes) in
  let loads = Array.map (fun h -> float_of_int h /. denom) hits in
  {
    loads;
    max_load = Array.fold_left max 0.0 loads;
    avg_size = float_of_int !size_sum /. denom;
    misses = !misses;
    trials;
  }
