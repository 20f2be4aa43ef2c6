(** Strategies over quorum systems (Definitions 3.3 and 3.4).

    A strategy is a probability distribution over quorums; it induces a
    load on each element (the probability the element participates in a
    randomly picked quorum), and the system load is the maximum element
    load under the best strategy.  This module evaluates explicit
    strategies exactly and structural selection procedures empirically;
    the LP that finds the optimal strategy lives in
    [Analysis.Load]. *)

type t = private { quorums : Bitset.t array; probs : float array }
(** Invariant: same lengths, probabilities non-negative and summing to
    1 (up to rounding). *)

val make : Bitset.t array -> float array -> t
(** Validates and normalizes the weights. *)

val uniform : Bitset.t list -> t
(** Equal probability on every quorum. *)

val element_loads : t -> float array
(** [element_loads s] has length [n]; entry [i] is the load induced on
    element [i] (Definition 3.4). *)

val system_load : t -> float
(** Maximum element load under this strategy. *)

val average_quorum_size : t -> float
(** Expected cardinality of the picked quorum. *)

val sample : t -> Rng.t -> Bitset.t
(** Draw a quorum according to the distribution. *)

type empirical = {
  loads : float array;  (** Per-element access frequency. *)
  max_load : float;
  avg_size : float;
  misses : int;  (** Selections that returned [None]. *)
  trials : int;
}

val empirical_of_select :
  ?live:Bitset.t ->
  n:int ->
  trials:int ->
  Rng.t ->
  (Rng.t -> live:Bitset.t -> Bitset.t option) ->
  empirical
(** Evaluate a structural selection procedure by sampling it [trials]
    times against [live] (default: the fully-live universe, the
    paper's setting; pass a partial [live] to measure strategy load
    under failures — selections returning [None] count as [misses]).
    The selections draw from [rng] one after another.  A selection
    takes a varying number of draws, so no trial's stream position is
    known before the ones ahead of it have run: the sampling is
    sequential. *)
