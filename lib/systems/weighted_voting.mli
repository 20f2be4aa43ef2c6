(** Weighted voting (Gifford 1979).

    Each process holds a number of votes; a quorum is any set holding a
    strict majority of the total votes.  The failure probability has an
    exact O(n * total_votes) dynamic program over the vote-generating
    polynomial ({!failure_probability}). *)

val system : ?name:string -> votes:int array -> unit -> Quorum.System.t
(** Quorums = sets with [2 * votes(S) > total].  Minimal quorums are
    enumerated lazily (guarded to universes of at most 22 processes)
    by a depth-first pass over the votes that stops a branch once it
    holds a majority or can no longer reach one, in ascending mask
    order, the order [Coterie.minimal_of_avail] gives (the load LP
    depends on it); the same pass gives their masks ([min_masks]).
    Availability itself works at any size.  The exact availability
    counts come from a DP over the processes on (live count, live
    votes), votes capped at the least available sum [total / 2 + 1];
    its table of [(n + 1) * (total / 2 + 2)] entries must fit in
    2^min(n, 20), else the system has no counts and
    [Failure.exact_poly] walks its live sets.  The DP restates
    {!failure_probability_hetero}'s vote-sum recursion over counts:
    a change to one changes the other. *)

val failure_probability : votes:int array -> p:float -> float
(** Exact: P(live votes fail to reach a strict majority). *)

val failure_probability_hetero :
  votes:int array -> p_of:(int -> float) -> float
(** Same with per-process crash probabilities. *)
