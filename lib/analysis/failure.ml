module Bitset = Quorum.Bitset
module System = Quorum.System
module Failure_poly = Quorum.Failure_poly
module Coterie = Quorum.Coterie
module Rng = Quorum.Rng
module Pool = Exec.Pool

(* Every estimator runs one chunked code path, and [?pool] decides
   only where the chunks run ([Pool.init]).  The chunks are chosen from
   the problem alone and combined in a fixed order, so a result is the
   same without a pool and on any number of domains, bit for bit: the
   2^n scans chunk by live-set prefix (the high [k] mask bits), the
   samplers by trial range. *)

let prefix_bits ~n ~seq_bits = min 8 (max 0 (n - seq_bits))
let mc_chunks = 64

(* Failing live sets of the subcube [base lor x], [x < 2^bits], by
   cardinality.  The walk reports each all-failing subcube once, as its
   fixed part's popcount [k] and free bit count [j]: it holds C(j, i)
   failing sets of cardinality [k + i]. *)
let count_fails ~n ~rows avail ~base ~bits =
  let counts = Array.make (n + 1) 0.0 in
  Coterie.walk avail ~base ~bits
    ~fail:(fun j k ->
      let row = rows.(j) in
      for i = 0 to j do
        counts.(k + i) <- counts.(k + i) +. row.(i)
      done)
    ~found:ignore;
  counts

(* A system that counts its available live sets fails on the rest:
   C(n, k) - a_k of the live sets of [k] processes.  Both are integers
   below 2^53, so the floats are the walk's, bit for bit. *)
let counted_fails ~n avail_counts =
  let a = avail_counts () in
  if Array.length a <> n + 1 then
    invalid_arg "Failure.exact_poly: avail_counts needs n+1 entries";
  let all = Quorum.Int_poly.binomial n in
  let fails = Array.make (n + 1) 0.0 in
  for k = 0 to n do
    fails.(k) <- float_of_int (all.(k) - a.(k))
  done;
  fails

(* Chunk [c] walks the masks whose top [k] bits equal [c].  Counts are
   integer-valued floats (< 2^53), so the chunks' sum is the counts of
   one walk over every mask. *)
let walked_fails ?pool (s : System.t) =
  let avail = System.avail_mask_exn s in
  let rows =
    Array.init (s.n + 1) (fun j -> Array.init (j + 1) (Failure_poly.binomial j))
  in
  let k = prefix_bits ~n:s.n ~seq_bits:14 in
  let shift = s.n - k in
  Pool.init ?pool (1 lsl k) (fun c ->
      count_fails ~n:s.n ~rows avail ~base:(c lsl shift) ~bits:shift)
  |> Pool.reduce_tree (Array.map2 ( +. ))

let exact_poly ?pool (s : System.t) =
  if s.n > 30 then
    invalid_arg "Failure.exact_poly: universe too large for enumeration";
  let counts =
    match s.avail_counts with
    | Some avail_counts -> counted_fails ~n:s.n avail_counts
    | None -> walked_fails ?pool s
  in
  Failure_poly.of_fail_counts ~n:s.n counts

let exact ?pool s ~p = Failure_poly.eval (exact_poly ?pool s) ~p

type estimate = { mean : float; half_width : float; trials : int }

let estimate_of ~failures ~trials =
  let mean = float_of_int failures /. float_of_int trials in
  let half_width =
    1.96 *. sqrt (mean *. (1.0 -. mean) /. float_of_int trials)
  in
  { mean; half_width; trials }

(* Trials [first, first + trials) of the one-stream sampler.  A trial
   draws one Bernoulli, one step, per process, so trial [first] starts
   [first * n] steps into [rng]'s stream; [rng] itself is only read. *)
let mc_count_failures rng (s : System.t) ~p_of ~first ~trials =
  let rng = Rng.copy rng in
  Rng.advance rng (first * s.n);
  let live = Bitset.create s.n in
  let failures = ref 0 in
  for _ = 1 to trials do
    Bitset.clear live;
    for i = 0 to s.n - 1 do
      if not (Rng.bernoulli rng (p_of i)) then Bitset.add live i
    done;
    if not (s.avail live) then incr failures
  done;
  !failures

(* The trials in [mc_chunks] consecutive ranges.  Failure counts are
   integers, so the estimate is the one-stream loop's, and [rng] ends
   where that loop leaves it: [trials * n] steps on. *)
let mc_estimate ?pool ~trials rng (s : System.t) ~p_of =
  let first c = c * trials / mc_chunks in
  let failures =
    Pool.init ?pool mc_chunks (fun c ->
        mc_count_failures rng s ~p_of ~first:(first c)
          ~trials:(first (c + 1) - first c))
    |> Array.fold_left ( + ) 0
  in
  Rng.advance rng (trials * s.n);
  estimate_of ~failures ~trials

let monte_carlo ?pool ?(trials = 100_000) rng (s : System.t) ~p =
  if trials <= 0 then invalid_arg "Failure.monte_carlo: trials";
  mc_estimate ?pool ~trials rng s ~p_of:(fun _ -> p)

let hetero_walk (s : System.t) avail ~p_of ~from ~mask ~prob =
  (* DFS over processes: each node multiplies in one survival factor,
     so the full scan costs one multiply per visited subset. *)
  let rec walk i mask prob =
    if prob = 0.0 then 0.0
    else if i = s.n then if avail mask then 0.0 else prob
    else begin
      let p = p_of i in
      walk (i + 1) mask (prob *. p)
      +. walk (i + 1) (mask lor (1 lsl i)) (prob *. (1.0 -. p))
    end
  in
  walk from mask prob

let exact_hetero ?pool (s : System.t) ~p_of =
  if s.n > 26 then
    invalid_arg "Failure.exact_hetero: universe too large for enumeration";
  let avail = System.avail_mask_exn s in
  (* Chunk [c] decides the first [k] processes, process 0 on its top
     bit (set: live), and walks the rest.  In index order the chunks
     are the depth-first walk's subtrees at depth [k], dead branch
     first, so [reduce_tree] over the 2^k of them adds as that walk
     adds, and each prefix probability multiplies in its order: the
     sum is one walk's, bit for bit. *)
  let k = prefix_bits ~n:s.n ~seq_bits:12 in
  Pool.init ?pool (1 lsl k) (fun c ->
      let mask = ref 0 and prob = ref 1.0 in
      for i = 0 to k - 1 do
        let p = p_of i in
        if c land (1 lsl (k - 1 - i)) <> 0 then begin
          mask := !mask lor (1 lsl i);
          prob := !prob *. (1.0 -. p)
        end
        else prob := !prob *. p
      done;
      hetero_walk s avail ~p_of ~from:k ~mask:!mask ~prob:!prob)
  |> Pool.reduce_tree ( +. )

let monte_carlo_hetero ?pool ?(trials = 100_000) rng (s : System.t) ~p_of =
  if trials <= 0 then invalid_arg "Failure.monte_carlo_hetero: trials";
  mc_estimate ?pool ~trials rng s ~p_of

let of_workload ?pool ?trials ?rng ~workload (s : System.t) =
  match Workload.p_of workload ~n:s.n with
  | Error _ as e -> e
  | Ok p_of -> (
      let rng = match rng with Some r -> r | None -> Rng.create 0 in
      try
        Ok
          (match workload.Workload.failures with
          | Workload.Iid p ->
              if s.n <= 26 then exact ?pool s ~p
              else (monte_carlo ?pool ?trials rng s ~p).mean
          | Workload.Per_process _ ->
              if s.n <= 26 then exact_hetero ?pool s ~p_of
              else (monte_carlo_hetero ?pool ?trials rng s ~p_of).mean)
      with Invalid_argument msg | Failure msg -> Error msg)

let failure_probability ?pool ?mc_trials ?rng (s : System.t) ~p =
  if s.n <= 26 then exact ?pool s ~p
  else begin
    let rng = match rng with Some r -> r | None -> Rng.create 0 in
    (monte_carlo ?pool ?trials:mc_trials rng s ~p).mean
  end
