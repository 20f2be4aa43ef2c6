module Bitset = Quorum.Bitset
module Rng = Quorum.Rng

let enumeration_cap = 200_000

let capped ~name count build =
  lazy
    (let count = count () in
     if count > float_of_int enumeration_cap then
       invalid_arg
         (Printf.sprintf "%s: %.0f quorums exceed the enumeration cap" name
            count)
     else build ())

(* Only systems of at most 62 processes list their quorums. *)
let min_quorums ~n ~r =
  capped ~name:"Thresh"
    (fun () -> float_of_int (Quorum.Combinat.choose_count n r))
    (fun () ->
      let acc = ref [] in
      Quorum.Combinat.iter_ksubset_masks ~n ~k:r (fun mask ->
          acc := Bitset.of_mask ~n mask :: !acc);
      List.rev !acc)

(* Uniform random r-subset of the live set: a partial Fisher-Yates over
   the live elements.  Structural — never forces the enumeration. *)
let select ~r rng ~live =
  let members = Array.of_list (Bitset.to_list live) in
  let len = Array.length members in
  if len < r then None
  else begin
    let q = Bitset.create (Bitset.capacity live) in
    for i = 0 to r - 1 do
      let j = i + Rng.int rng (len - i) in
      let tmp = members.(i) in
      members.(i) <- members.(j);
      members.(j) <- tmp;
      Bitset.add q members.(i)
    done;
    Some q
  end

(* Exact availability counts: the binomial tail that
   [failure_probability_hetero] sums, all C(n, k) live sets of k >= r
   processes. *)
let avail_counts ~n ~r =
  Array.mapi (fun k c -> if k >= r then c else 0) (Quorum.Int_poly.binomial n)

let system ?name ~n ~r () =
  if n <= 0 || r < 1 || r > n then
    invalid_arg "Thresh.system: need 1 <= r <= n";
  let name =
    match name with Some s -> s | None -> Printf.sprintf "thresh(%d-%d)" n r
  in
  let avail live = Bitset.cardinal live >= r in
  let avail_counts () = avail_counts ~n ~r in
  if n <= 62 then
    Quorum.System.make ~name ~n ~avail
      ~avail_mask:(fun mask -> Bitset.popcount mask >= r)
      ~avail_counts ~min_quorums:(min_quorums ~n ~r) ~select:(select ~r) ()
  else Quorum.System.make ~name ~n ~avail ~avail_counts ~select:(select ~r) ()

let failure_probability_hetero ~n ~r ~p_of =
  (* dp.(k) = P(exactly k of the processes seen so far are live). *)
  let dp = Array.make (n + 1) 0.0 in
  dp.(0) <- 1.0;
  for i = 0 to n - 1 do
    let p = p_of i in
    for k = min i (r - 1) downto 0 do
      dp.(k + 1) <- dp.(k + 1) +. (dp.(k) *. (1.0 -. p));
      dp.(k) <- dp.(k) *. p
    done
  done;
  (* Everything still in dp.(0..r-1) has fewer than r live processes
     (mass that reached r is parked in dp.(r) and never moved). *)
  let fail = ref 0.0 in
  for k = 0 to r - 1 do
    fail := !fail +. dp.(k)
  done;
  !fail
