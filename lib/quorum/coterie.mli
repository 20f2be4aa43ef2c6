(** Operations on explicit quorum collections.

    Definition 3.1: a quorum system is a collection of subsets with
    pairwise non-empty intersection; a coterie additionally is an
    antichain.  This module provides the checks used throughout the test
    suite (every construction must pass [all_intersect]) and the
    classical structural notions: minimization and domination, plus the
    monotone subcube walk that the exact failure polynomial
    (Proposition 3.1) and the minimal-quorum enumeration share. *)

val all_intersect : Bitset.t list -> bool
(** Pairwise intersection property over the list.  Quadratic; over
    one universe of at most 62 processes it compares masks. *)

val is_antichain : Bitset.t list -> bool
(** No quorum strictly contains another (and no duplicates).
    Quadratic; over one universe of at most 62 processes it compares
    masks. *)

val is_coterie : Bitset.t list -> bool
(** [all_intersect && is_antichain] and non-empty. *)

val minimize : Bitset.t list -> Bitset.t list
(** Drop dominated quorums and duplicates, keeping first occurrences:
    the result is the minimal quorums in input order, the very values
    given.  Callers build load LPs on the list, whose column order
    Bland's rule depends on, so the order is part of the contract.
    Quadratic in the list's length; over one universe of at most 62
    processes it compares [Bitset.to_mask] values. *)

val dominates : Bitset.t list -> Bitset.t list -> bool
(** [dominates c d]: coterie [c] dominates [d] (Garcia-Molina &
    Barbara): every quorum of [d] contains some quorum of [c], and
    [c <> d] as quorum sets. *)

val walk :
  (int -> bool) ->
  base:int ->
  bits:int ->
  fail:(int -> int -> unit) ->
  found:(int -> unit) ->
  unit
(** [walk avail_mask ~base ~bits ~fail ~found] partitions the subcube
    of masks [base lor x], [x < 2^bits] ([base] has no bit below
    [bits]), into subcubes on which the monotone predicate [avail_mask]
    is constant, in ascending mask order.  An all-failing subcube with
    [j] free low bits whose fixed part has [k] members is reported as
    [fail j k] (it holds C(j, i) failing sets of [k + i] members); an
    all-available one as [found b], its bottom [b], which is its only
    possibly minimal mask.  Monotonicity decides a subcube from its
    ends: its top fails, or its bottom is available.  Undecided
    subcubes are split on their highest free bit, the without-bit half
    first, and each half costs one [avail_mask] call; subcubes of at
    most three free bits are scanned mask by mask.  A predicate that
    is not monotone gets wrong answers. *)

val minimal_of_avail : n:int -> (int -> bool) -> Bitset.t list
(** [minimal_of_avail ~n avail_mask] enumerates the minimal quorums of
    a monotone availability predicate in ascending mask order (the
    column order of the load LPs built on them), by {!walk}ing the 2^n
    subsets: only the bottom of an all-available subcube is tested for
    minimality.  Guarded to [n <= 22]; larger constructions must
    enumerate structurally. *)

val is_non_dominated : n:int -> (int -> bool) -> bool
(** [is_non_dominated ~n avail_mask]: no coterie strictly dominates
    this one.  Garcia-Molina & Barbara: a coterie is dominated iff some
    set hits every quorum yet contains none; equivalently, it is
    non-dominated iff {e every} bipartition of the universe leaves at
    least one side available — which is also why non-dominated systems
    have failure probability exactly 1/2 at p = 1/2.  Exact 2^(n-1)
    scan; guarded to [n <= 30]. *)
