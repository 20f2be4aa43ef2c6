(** Threshold systems: every [r]-subset of the [n] processes is a
    quorum.

    With [2r > n] this is the (plain) majority family — a genuine
    coterie.  With [r <= n/2] the quorums do {e not} pairwise
    intersect, so the system is only meaningful as one {e side} of a
    read/write pair: an [r]-of-[n] read threshold matched with a
    [(n+1-r)]-of-[n] write threshold intersects by counting
    ([r + w = n + 1]), which is exactly the strategy-space knob the
    workload optimizer sweeps (Whittaker et al., {e Read-Write Quorum
    Systems Made Practical}).

    By symmetry the uniform strategy is load-optimal: every element
    carries load [r/n], and the expected quorum size is exactly [r]. *)

val system : ?name:string -> n:int -> r:int -> unit -> Quorum.System.t
(** [system ~n ~r ()] — requires [1 <= r <= n].  [min_quorums]
    enumerates the [C(n, r)] subsets lazily (forcing refuses beyond
    200_000 quorums — {!Quorum.System.quorums} turns that into an
    [Error]); selection picks a uniform random [r]-subset of the live
    set without forcing the enumeration.  Its exact availability counts
    are the binomial tail: all C(n, k) live sets of [k >= r]
    processes. *)

val enumeration_cap : int
(** 200_000: the most quorums a threshold, HQS, wall or grid system
    lists. *)

val capped :
  name:string -> (unit -> float) -> (unit -> Quorum.Bitset.t list) ->
  Quorum.Bitset.t list Lazy.t
(** [capped ~name count build] is a [min_quorums]: forcing it counts,
    then past {!enumeration_cap} raises [Invalid_argument] before
    [build] runs. *)

val failure_probability_hetero : n:int -> r:int -> p_of:(int -> float) -> float
(** Exact Poisson-binomial tail: the probability that fewer than [r]
    processes are live, in [O(n^2)] — no enumeration, any [n]. *)
