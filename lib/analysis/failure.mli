(** Failure-probability computation (Definition 3.2 / Proposition 3.1).

    Three routes, in decreasing exactness and increasing reach:

    - {!exact_poly}: count the failing live-sets of all 2^n by
      cardinality, yielding the full failure polynomial — from the
      system's availability counts when it has them (no check at
      all), else through its mask fast-path (at most 2^n checks,
      practical to n ~ 28-30, every size the paper tabulates);
    - closed forms: the per-construction recursions live with their
      constructions ([Wall.failure_probability],
      [Hgrid.failure_probability], [Htriang.failure_probability], ...)
      and are cross-checked against the enumeration in the test suite;
    - {!monte_carlo}: iid sampling of live-sets at a fixed [p], with a
      95% confidence half-width, for universes beyond enumeration.

    {b Parallelism.}  Every route takes an optional [?pool]
    ([Exec.Pool]) that decides only where its work runs: each
    estimator has one code path, which splits the work into chunks
    chosen from the problem alone (the 2^n scans by live-set prefix,
    the samplers by trial range) and combines them in a fixed order.
    Without a pool the same chunks run in order on the calling
    domain.  So every result is the same without a pool and with a
    pool of any size, bit for bit.  A system with availability counts
    leaves the pool unused. *)

val exact_poly : ?pool:Exec.Pool.t -> Quorum.System.t -> Quorum.Failure_poly.t
(** Requires [n <= 30].  A system with availability counts
    ([avail_counts]: weighted voting and majority unless their votes
    are huge, grid, h-grid, h-T-grid, h-triang, HQS, the tree
    protocol, walls, thresholds and the singleton) fails on the rest
    of the live sets, C(n, k) - a_k of size [k]; nothing is scanned
    and [pool] is unused.  Every other system is scanned by
    {!Quorum.Coterie.walk}: availability is monotone, so a subcube of
    live sets (a fixed part plus any subset of the low free bits)
    whose top fails fails entirely and adds one binomial row to the
    counts, and one whose bottom is available is skipped; only
    subcubes with a failing bottom and an available top are split.
    The walk checks 0.21 (grid-rw(4x6)) to 0.67 (majority(24)) of the
    live sets on the ledger's families with their counts stripped.
    Above 14 processes it runs in up to 256 chunks, one per value of
    the live set's top bits, pool or not.  Both routes give the counts
    a set-by-set scan gives, bit for bit.  A system whose
    [avail_mask] is not monotone, or whose counts are not its scan's,
    gets a wrong polynomial. *)

val exact : ?pool:Exec.Pool.t -> Quorum.System.t -> p:float -> float
(** [eval (exact_poly s) ~p] — prefer {!exact_poly} when sweeping
    over [p]. *)

type estimate = { mean : float; half_width : float; trials : int }
(** [mean] plus/minus [half_width] is a 95% confidence interval. *)

val monte_carlo :
  ?pool:Exec.Pool.t ->
  ?trials:int ->
  Quorum.Rng.t ->
  Quorum.System.t ->
  p:float ->
  estimate
(** Default 100_000 trials.  Each trial draws one {!Quorum.Rng.bernoulli}
    per process, in process order, from [rng]'s stream, and [rng] ends
    [trials * n] draws on.  The trials run in 64 consecutive ranges,
    each from a copy of [rng] advanced to its first trial
    ({!Quorum.Rng.advance}), so the estimate is the same with or
    without a pool. *)

val failure_probability :
  ?pool:Exec.Pool.t ->
  ?mc_trials:int ->
  ?rng:Quorum.Rng.t ->
  Quorum.System.t ->
  p:float ->
  float
(** Auto-dispatch: exact enumeration when [n <= 26], Monte-Carlo
    otherwise (seed 0 unless [rng] given). *)

(** {1 Heterogeneous crash probabilities}

    The paper's model gives every process the same [p]; real
    deployments do not.  These variants take a per-process crash
    probability.  The per-construction closed forms have matching
    [failure_probability_hetero] functions, cross-checked against
    {!exact_hetero} in the test suite. *)

val exact_hetero :
  ?pool:Exec.Pool.t -> Quorum.System.t -> p_of:(int -> float) -> float
(** Exact by depth-first enumeration of live-sets with their
    probabilities; requires [n <= 26].  Above 12 processes the walk
    runs in up to 256 chunks, one per liveness of the first processes,
    pool or not, and a balanced tree adds the chunk sums in the order
    the depth-first walk adds them: the result does not depend on the
    pool, bit for bit. *)

val monte_carlo_hetero :
  ?pool:Exec.Pool.t ->
  ?trials:int ->
  Quorum.Rng.t ->
  Quorum.System.t ->
  p_of:(int -> float) ->
  estimate
(** {!monte_carlo} with process [i] crashing with probability
    [p_of i]; the same draws, chunks and guarantee. *)

(** {1 Unified workload entry point}

    The route new code should take: one {!Workload.t} instead of
    scattered [~p] / [~p_of] arguments, a [result] instead of raised
    [Invalid_argument]s.  The entry points above remain as the
    low-level compatibility shims the auto-dispatch is built from. *)

val of_workload :
  ?pool:Exec.Pool.t ->
  ?trials:int ->
  ?rng:Quorum.Rng.t ->
  workload:Workload.t ->
  Quorum.System.t ->
  (float, string) result
(** Failure probability of the system under the workload's failure
    model: exact enumeration when [n <= 26] ({!exact} / {!exact_hetero}
    by model), Monte-Carlo beyond (seed 0 unless [rng] given; [trials]
    defaults to 100_000).  [Error] on a workload that does not validate
    against the system's universe — never raises. *)
