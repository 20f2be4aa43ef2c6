(** Workload-aware quorum-system optimizer.

    Given a {!Workload.t}, sweep the {!Core.Registry} catalogue —
    every family that instantiates over the requested universe size,
    plus the [r]-of-[n] / [(n+1-r)]-of-[n] threshold read/write pairs
    the catalogue cannot express as single coteries — evaluate each
    candidate on four objectives, and return the Pareto frontier:

    - {b load}: LP-optimal system load where the quorums enumerate
      ({!Load.try_optimal} for symmetric candidates, the mixed
      read/write LP of {!mixed_load} for paired ones, the closed form
      for threshold pairs), falling back to the empirical load of the
      construction's selection strategy;
    - {b availability}: [fr * (1 - F_read) + (1 - fr) * (1 - F_write)]
      with the failure probabilities from {!Failure.of_workload};
    - {b expected quorum RTT} under the workload's topology (0 when
      there is none);
    - {b expected quorum size}.

    Every candidate that does {e not} make the frontier comes back
    with an explanation: the frontier point that dominates it, the
    crash set that breaks its resilience target, or the error that
    stopped its evaluation.

    {b Shared load LPs.}  A symmetric candidate's load LP depends on
    its universe size and ordered quorum list only (Bland's rule takes
    the lowest column), not on the workload.  So before it evaluates
    anything, the sweep groups those candidates by [(n, quorum list)],
    compared structurally (a matching quorum count is not enough), and
    solves the LP once per group ({!Load.optimal_of_masks}: the lists
    are held as one mask per quorum, so candidates over more than 62
    processes solve their own).  Each member is then evaluated as
    {!evaluate} evaluates it alone, with its group's result in place of
    its own {!Load.try_optimal}: a group whose LP fails hands every
    member the same [Error], and each falls back to its empirical
    strategy as it would alone.  Threshold pairs keep their closed
    form, and mixed read/write LPs, which depend on the read fraction,
    are not shared.  Nothing is kept between sweeps.

    {b Determinism.}  The sweep runs three batches on an {!Exec.Pool}:
    one chunk per candidate to enumerate its quorum list, one per
    group to solve its LP, and one per candidate to evaluate it.  Every
    candidate derives its RNG seed from the sweep seed and its own
    index and builds its systems fresh inside its chunk (no shared
    lazies); LP results are shared read-only within a group; and no
    chunk touches the pool — so the report is bit-identical for any
    [--jobs], and to the candidates evaluated one by one. *)

type source =
  | Lp  (** LP-optimal strategy (plain or mixed read/write) *)
  | Analytic  (** closed form (threshold pairs) *)
  | Empirical  (** sampled from the construction's selection strategy *)

type point = {
  label : string;
  read_spec : string;
  write_spec : string;  (** equals [read_spec] for symmetric candidates *)
  n : int;
  load : float;
  availability : float;
  rtt : float;  (** 0.0 under [No_latency] *)
  size : float;  (** expected quorum size under the mix *)
  source : source;
}

type candidate = { label : string; read_spec : string; write_spec : string }

type report = {
  workload : Workload.t;
  n : int;
  seed : int;
  trials : int;
  frontier : point list;  (** Pareto-optimal, sorted by load *)
  dominated : (point * string) list;
      (** evaluated points off the frontier, each with the frontier
          point that dominates it *)
  unresilient : (point * string) list;
      (** points that miss the resilience target, with a witness
          crash set *)
  errors : (string * string) list;  (** candidate label, error message *)
  not_instantiable : string list;
      (** catalogue families with no valid instantiation at [n] *)
}

val candidates : n:int -> candidate list
(** The default candidate set: every validated
    {!Core.Registry.instantiations} spec (coteries symmetric;
    [Read_half]/[Write_half] families paired), plus the [n] threshold
    pairs [(r, n + 1 - r)]. *)

val threshold_pair_load : n:int -> read_fraction:float -> r:int -> float
(** Closed-form load of the [r]-of-[n] read / [(n+1-r)]-of-[n] write
    pair: [(fr * r + (1 - fr) * (n + 1 - r)) / n] — the uniform
    strategy is optimal by symmetry. *)

val best_threshold_pair :
  n:int -> f:int -> read_fraction:float -> (int * float) option
(** The read threshold [r] minimizing {!threshold_pair_load} among the
    [f]-resilient pairs ([f + 1 <= r <= n - f]); [None] when no pair
    is resilient ([2f >= n]). *)

val mixed_load :
  read_fraction:float ->
  n:int ->
  reads:Quorum.Bitset.t list ->
  writes:Quorum.Bitset.t list ->
  (float * Quorum.Strategy.t * Quorum.Strategy.t, string) result
(** The mixed read/write load LP: distributions [wR] over [reads] and
    [wW] over [writes] minimizing
    [max_i (fr * loadR_i + (1 - fr) * loadW_i)].  Returns the load and
    the two witnessing strategies (zero-weight quorums pruned).  With
    [reads == writes] this equals the plain system-load LP. *)

val pareto : point list -> point list * (point * point) list
(** Split into (frontier, dominated-with-dominator).  [a] dominates
    [b] iff [a] is no worse on all four objectives (load, rtt, size
    down; availability up) and strictly better on at least one.  The
    frontier is sorted by load, then label. *)

val evaluate :
  ?trials:int ->
  ?seed:int ->
  workload:Workload.t ->
  candidate ->
  (point * string option, string) result
(** Evaluate one candidate sequentially; [Ok (point, witness)] where
    the witness is [Some crash_set] when the candidate misses the
    workload's resilience target.  Never raises. *)

val sweep :
  ?pool:Exec.Pool.t ->
  ?trials:int ->
  ?seed:int ->
  ?candidates:candidate list ->
  workload:Workload.t ->
  n:int ->
  unit ->
  (report, string) result
(** Run the full sweep (defaults: [trials = 50_000], [seed = 47], the
    {!candidates} of [n]).  Candidate [i] gets what
    [evaluate ~trials ~seed:(seed + 997 * i)] gives it alone.  With
    [~pool], the three batches above run as pool chunks; the report is
    bit-identical for any pool size.  [Error] only when
    the workload itself does not validate at [n] or the candidate set
    is empty — per-candidate failures are collected in
    [report.errors]. *)

val render : report -> string
(** Human-readable report: the workload line, a frontier table and the
    per-candidate explanations (dominated / unresilient / errors /
    not instantiable). *)
