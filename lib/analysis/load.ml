module Bitset = Quorum.Bitset
module Strategy = Quorum.Strategy

type result = { load : float; strategy : Strategy.t }

(* The LP over [m] quorums, [mem j i] telling whether quorum [j] holds
   process [i]; [quorum j] builds quorum [j] for the strategy, which
   keeps only the quorums of positive weight. *)
let optimal_by ~n ~m ~mem ~quorum =
  if m = 0 then invalid_arg "Load.optimal_of_quorums: no quorums";
  (* Variables: w_1..w_m, t.  Minimize t. *)
  let nv = m + 1 in
  let c = Array.make nv 0.0 in
  c.(m) <- 1.0;
  let a_ub =
    Array.init n (fun i ->
        let row = Array.make nv 0.0 in
        for j = 0 to m - 1 do
          if mem j i then row.(j) <- 1.0
        done;
        row.(m) <- -1.0;
        row)
  in
  let b_ub = Array.make n 0.0 in
  let a_eq =
    [| Array.init nv (fun j -> if j < m then 1.0 else 0.0) |]
  in
  let b_eq = [| 1.0 |] in
  match Lp.Simplex.solve ~c ~a_ub ~b_ub ~a_eq ~b_eq () with
  | Lp.Simplex.Optimal { objective; solution } ->
      let kept = ref [] in
      Array.iteri
        (fun j w -> if j < m && w > 1e-12 then kept := (quorum j, w) :: !kept)
        solution;
      let kept = Array.of_list !kept in
      {
        load = objective;
        strategy =
          Strategy.make (Array.map fst kept) (Array.map snd kept);
      }
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
      (* Cannot happen: w = uniform, t = 1 is always feasible and
         t >= 1/n bounds the objective. *)
      failwith "Load.optimal_of_quorums: LP solver failed"

let optimal_of_quorums ~n quorums =
  let quorums = Array.of_list quorums in
  optimal_by ~n ~m:(Array.length quorums)
    ~mem:(fun j i -> Bitset.mem quorums.(j) i)
    ~quorum:(Array.get quorums)

let optimal_of_masks ~n masks =
  optimal_by ~n ~m:(Array.length masks)
    ~mem:(fun j i -> masks.(j) land (1 lsl i) <> 0)
    ~quorum:(fun j -> Bitset.of_mask ~n masks.(j))

let optimal (s : Quorum.System.t) =
  optimal_of_quorums ~n:s.n (Quorum.System.quorums_exn s)

let try_optimal (s : Quorum.System.t) =
  match Quorum.System.quorums s with
  | Error _ as e -> e
  | Ok quorums -> (
      try Ok (optimal_of_quorums ~n:s.n quorums)
      with Invalid_argument msg | Failure msg -> Error msg)

let smallest_quorum_size (s : Quorum.System.t) =
  match
    List.fold_left
      (fun acc q -> min acc (Bitset.cardinal q))
      max_int
      (Quorum.System.quorums_exn s)
  with
  | c when c = max_int -> invalid_arg "Load.lower_bounds: no quorums"
  | c -> c

let lower_bounds s =
  let c = float_of_int (smallest_quorum_size s) in
  (c /. float_of_int s.n, 1.0 /. c)

let balanced_lower_bound s =
  let a, b = lower_bounds s in
  max a b
