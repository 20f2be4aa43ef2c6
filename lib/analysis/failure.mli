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
    ([Exec.Pool]): the 2^n scans shard by live-set prefix (a system
    with availability counts leaves the pool unused), the
    samplers split one RNG stream per fixed chunk.  Chunking never
    depends on the pool's domain count, so a pooled result is
    bit-identical for jobs of 1, 2, 4, ...; {!exact_poly} (integer
    counting) and the samplers at [jobs = 1] moreover match the
    sequential route exactly.  Omitting [?pool] keeps the original
    single-domain code path. *)

val exact_poly : ?pool:Exec.Pool.t -> Quorum.System.t -> Quorum.Failure_poly.t
(** Requires [n <= 30].  A system with availability counts
    ([avail_counts]: weighted voting and majority unless their votes
    are huge, grid, h-grid, h-T-grid, h-triang) fails on the rest of
    the live sets, C(n, k) - a_k of size [k]; nothing is scanned and
    [pool] is unused.  Every
    other system is scanned by {!Quorum.Coterie.walk}: availability is
    monotone, so a subcube of live sets (a fixed part plus any subset
    of the low free bits) whose top fails fails entirely and adds one
    binomial row to the counts, and one whose bottom is available is
    skipped; only subcubes with a failing bottom and an available top
    are split.  The walk checks 0.21 (grid-rw(4x6)) to 0.67
    (majority(24)) of the live sets on the ledger's families with
    their counts stripped.  Both routes give the counts a set-by-set
    scan gives, bit for bit.  With a pool, the walk's mask range is
    sharded by live-set prefix (up to 256 chunks), each chunk walked on
    its own; counts are integer-valued floats, so the pooled result
    equals the sequential one bit-for-bit.  A system whose
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
(** Default 100_000 trials.  With a pool the trials are split into 64
    fixed chunks, each consuming its own stream split off [rng] in
    chunk order — the estimate is the same for any domain count (but
    differs from the unpooled single-stream estimate, which is kept
    bit-compatible with the pre-pool implementation). *)

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
    probabilities; requires [n <= 26].  With a pool the DFS is sharded
    on the liveness of the first processes and the per-chunk sums are
    combined by a deterministic tree reduction: pooled results are
    identical across domain counts (though the summation order — and
    hence the last ulp — may differ from the unpooled DFS). *)

val monte_carlo_hetero :
  ?pool:Exec.Pool.t ->
  ?trials:int ->
  Quorum.Rng.t ->
  Quorum.System.t ->
  p_of:(int -> float) ->
  estimate

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
