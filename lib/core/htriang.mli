(** The hierarchical triangle quorum system (section 5) — the paper's
    second contribution.

    Processes fill a triangle with [d] rows (row [i] has [i] elements,
    [n = d(d+1)/2]).  A triangle with [j > 1] rows splits into

    - sub-triangle T1: the top [floor(j/2)] rows;
    - sub-grid G: the first [floor(j/2)] elements of each remaining
      row ([ceil(j/2)] rows x [floor(j/2)] columns);
    - sub-triangle T2: the rest (a triangle with [ceil(j/2)] rows);

    and a quorum of the triangle is one of

    + a quorum of T1 and a quorum of T2;
    + a quorum of T1 and a row-cover of G;
    + a quorum of T2 and a full-line of G.

    Every quorum has exactly [d] elements ([~ sqrt(2n)]), all three
    components are disjoint so availability has an exact product-form
    recursion, and the [w1/w2/w3] strategy solving the section-5
    equation system induces a perfectly uniform load of [2/(d+1)]
    ([~ sqrt 2 / sqrt n]). *)

type node = private
  | Elem of int
  | Split of { t1 : node; grid : int array array; t2 : node }
      (** [grid] is an array of rows, each an array of element ids. *)

type t = private { root : node; n : int; rows : int }
(** [rows] is the quorum size: every quorum of a standard triangle has
    exactly this many elements (after growth it is the size of T1-side
    chains and may no longer be uniform). *)

val standard : ?split:[ `Floor | `Ceil ] -> rows:int -> unit -> t
(** The canonical triangle, ids row-major: element [(r, c)]
    ([0 <= c <= r < rows]) has id [r(r+1)/2 + c].  [split] chooses how
    many rows go to sub-triangle 1 at each division: the paper's
    definition is [`Floor] (the default), [`Ceil] is the mirrored
    variant used for calibration. *)

val avail : t -> Quorum.Bitset.t -> bool
(** [avail t live]: [live] holds a quorum of [t].  This closure-free
    check serves {!system}'s [avail] and {!select}'s feasibility tests
    and allocates nothing; {!system}'s [avail_mask] is its copy over a
    raw mask. *)

val quorums : t -> Quorum.Bitset.t list
(** All minimal quorums (they form an antichain by construction; for a
    standard triangle all have size [rows]). *)

val system : ?name:string -> t -> Quorum.System.t
(** Its exact availability counts are {!failure_probability}'s
    recursion over count polynomials: each term's missing parts enter
    as their totals, and ids outside the tree as free spares. *)

val failure_probability : t -> p:float -> float
(** Exact: with [a, b] the sub-triangle availabilities and [r, f] the
    sub-grid row-cover / full-line probabilities,
    [A = ab + ar + bf - abr - abf] (the joint RC-and-FL term cancels in
    the inclusion-exclusion).  {!system}'s availability counts restate
    this recursion over count polynomials: a change to one changes the
    other. *)

val failure_probability_hetero : t -> p_of:(int -> float) -> float
(** Same recursion with per-process crash probabilities. *)

(** {1 The load-balancing strategy (section 5)} *)

type weights = { w1 : float; w2 : float; w3 : float; k : float }
(** Method probabilities at one split, and the per-request element load
    [k] they induce. *)

val split_weights :
  c1:int -> c2:int -> c3:int -> q1:int -> q2:int -> q3l:int -> q3r:int ->
  weights
(** Solve the section-5 equation system
    {v w1+w2+w3 = 1,  w1+w2 = (c1/q1) k,  w1+w3 = (c2/q2) k,
       (q3r w2 + q3l w3)/c3 = k v} *)

val strategy_loads : t -> float array
(** Exact per-element load induced by the recursive [w1/w2/w3]
    strategy (uniform and equal to [2/(rows+1)] on a standard
    triangle). *)

val select :
  t -> Quorum.Rng.t -> live:Quorum.Bitset.t -> Quorum.Bitset.t option
(** Live-aware selection following the strategy weights: at each split
    it draws one method among those that are feasible under [live]
    {e and} have positive weight, in proportion to their weights, and
    recurses.  A method of weight [<= 0] is never drawn, even when it
    is the only feasible one, so on triangles reshaped by the growth
    and shrink rules [select] can return [None] while [live] holds a
    quorum (a shrunk 11-process triangle refuses 168 of the 19,460
    selections of one ledger [chaos-mix] rep at seed 46).  A method
    that fails below its split fails the whole selection.  Allocates
    only the returned bitset. *)

val system_load : t -> float
(** The uniform load [k] of the strategy at the root. *)

(** {1 Growth rules (section 5, "Introducing new elements")} *)

val grow_unit_triangle : t -> t option
(** Replace the first single-element sub-triangle (DFS order) by a
    2-row triangle, adding 2 processes.  [None] if there is none
    (i.e. the triangle is a lone element). *)

val grow_unit_grid : t -> t option
(** Replace the first 1x1 sub-grid by a 1x2 sub-grid, adding 1
    process. *)

val grow_square_grid : t -> t option
(** Replace the first [m x m] sub-grid ([m >= 1]) by an
    [(m+1) x (m+1)] one, adding [2m + 1] processes. *)

(** {1 Shrink rules (inverses of the growth rules)}

    Each rule undoes the matching growth rule at the first (DFS)
    applicable site and then renumbers the surviving elements
    order-preservingly onto the contiguous prefix [0, n'), so the
    result is again a valid triangle over its own universe.  The
    renumbering is safe for online reconfiguration because epoch
    transitions carry state by seal / install onto a quorum of the new
    system, never by per-element identity (see [Protocols.Reconfig]).
    All three preserve quorum intersection and coterie-ness (tested as
    qcheck properties over random growth/shrink sequences). *)

val shrink_unit_triangle : t -> t option
(** Collapse the first 2-row sub-triangle (an [Elem]/1x1-grid/[Elem]
    split) back to its T1 element, removing 2 processes.  [None] when
    no such site exists. *)

val shrink_unit_grid : t -> t option
(** Replace the first 1x2 sub-grid by a 1x1 sub-grid, removing 1
    process. *)

val shrink_square_grid : t -> t option
(** Replace the first [m x m] sub-grid ([m >= 2]) by an
    [(m-1) x (m-1)] one, removing [2m - 1] processes. *)

val render : t -> string
(** ASCII rendering of the triangle with the first-level split marked
    (Figure 2): T1 rows plain, sub-grid elements bracketed, T2 elements
    parenthesized. *)
