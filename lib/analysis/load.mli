(** System load (Definitions 3.3 / 3.4) and Proposition 3.3 bounds.

    The system load is the value of the linear program

    {v minimize t   s.t.  sum_j w_j = 1,  w >= 0,
                          forall i: sum_(j : i in S_j) w_j <= t v}

    over the (minimal) quorums [S_j].  {!optimal} solves it with the
    in-repo simplex and returns both the load and the witnessing
    strategy.  {!lower_bounds} gives the Proposition 3.3 bounds
    [c(S)/n] and [1/c(S)] that hold for every strategy. *)

type result = {
  load : float;
  strategy : Quorum.Strategy.t;  (** Optimal strategy (zero-weight quorums pruned). *)
}

val optimal : Quorum.System.t -> result
(** Requires an enumerable quorum list.  Raises [Invalid_argument] when
    the construction does not expose one — compatibility shim; new code
    should use {!try_optimal}. *)

val try_optimal : Quorum.System.t -> (result, string) Stdlib.result
(** {!optimal} with the uniform [result] convention the CLI renders:
    [Error] (instead of an exception) when the construction does not
    enumerate its quorums, when forcing the enumeration refuses, or
    when the LP fails.  Never raises. *)

val optimal_of_quorums : n:int -> Quorum.Bitset.t list -> result

val optimal_of_masks : n:int -> int array -> result
(** {!optimal_of_quorums} on the quorums given as raw masks
    ({!Quorum.Bitset.to_mask}, [n <= 62]), bit for bit: the same LP,
    load and strategy, with only the strategy's quorums built as
    bitsets.  [Optimizer.sweep] keeps its candidates' quorum lists in
    this form. *)

val lower_bounds : Quorum.System.t -> float * float
(** [(c/n, 1/c)] with [c] the smallest quorum cardinality. *)

val balanced_lower_bound : Quorum.System.t -> float
(** [max (c/n) (1/c)]. *)
