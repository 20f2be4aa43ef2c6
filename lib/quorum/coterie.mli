(** Operations on explicit quorum collections.

    Definition 3.1: a quorum system is a collection of subsets with
    pairwise non-empty intersection; a coterie additionally is an
    antichain.  This module provides the checks used throughout the test
    suite (every construction must pass [all_intersect]) and the
    classical structural notions: minimization, domination and
    transversals (Proposition 3.1). *)

val all_intersect : Bitset.t list -> bool
(** Pairwise intersection property over the list. *)

val is_antichain : Bitset.t list -> bool
(** No quorum strictly contains another (and no duplicates). *)

val is_coterie : Bitset.t list -> bool
(** [all_intersect && is_antichain] and non-empty. *)

val minimize : Bitset.t list -> Bitset.t list
(** Drop dominated quorums and duplicates, keeping first occurrences. *)

val dominates : Bitset.t list -> Bitset.t list -> bool
(** [dominates c d]: coterie [c] dominates [d] (Garcia-Molina &
    Barbara): every quorum of [d] contains some quorum of [c], and
    [c <> d] as quorum sets. *)

val minimal_of_avail : n:int -> (int -> bool) -> Bitset.t list
(** [minimal_of_avail ~n avail_mask] enumerates the minimal quorums of
    a monotone availability predicate by scanning all 2^n subsets.
    Guarded to [n <= 22]; larger constructions must enumerate
    structurally. *)

val is_non_dominated : n:int -> (int -> bool) -> bool
(** [is_non_dominated ~n avail_mask]: no coterie strictly dominates
    this one.  Garcia-Molina & Barbara: a coterie is dominated iff some
    set hits every quorum yet contains none; equivalently, it is
    non-dominated iff {e every} bipartition of the universe leaves at
    least one side available — which is also why non-dominated systems
    have failure probability exactly 1/2 at p = 1/2.  Exact 2^(n-1)
    scan; guarded to [n <= 30]. *)

val transversal_counts : n:int -> (int -> bool) -> float array
(** [transversal_counts ~n avail_mask] is the [a_i] vector of
    Proposition 3.1: [a.(i)] counts size-[i] dead-sets whose removal
    kills every quorum.  Exact 2^n scan; guarded to [n <= 30]. *)
