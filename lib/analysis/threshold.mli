(** Critical crash probabilities.

    Kumar & Cheung prove the hierarchical grid's availability tends to
    1 for every [p < p* < 1/2] with [p*] depending on the sub-grid
    dimensions, and the paper inherits that claim for the h-T-grid and
    h-triang; none of the papers compute [p*].  This module measures
    it: a family of growing instances is {e supercritical} at [p] when
    its failure probability still decreases between the two largest
    instances; [p*] is located by bisection.

    For ideal recursions the threshold is also the unstable fixed point
    of the level map (e.g. majority-of-three: [a -> 3a^2 - 2a^3] has
    fixed point 1/2, so HQS has p* = 1/2 exactly); the measured values
    are validated against such fixed points in the test suite. *)

val improves : family:(int -> p:float -> float) -> levels:int * int ->
  float -> bool
(** [improves ~family ~levels:(small, large) p]: the failure
    probability genuinely decays between the instances (a geometric
    drop, so approaching a non-zero plateau does not count), or both
    values have underflowed to ~0 (deep supercritical). *)

val bisect :
  supercritical:(float -> bool) -> low:float -> high:float -> unit -> float
(** Largest [p] (within [2^-30 * (high - low)]) such that
    [supercritical p]; assumes monotonicity.
    [low] must be supercritical; returns [low] if even it is not. *)

val critical_p :
  family:(int -> p:float -> float) -> levels:int * int -> unit -> float
(** [bisect] over [improves]. *)
