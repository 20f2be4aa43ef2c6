(** Online reconfiguration of the quorum system — the paper's section 5
    "introducing new elements" turned into a protocol.

    The h-triang growth rules produce a {e new} quorum system over a
    superset of the old universe (fresh processes get fresh ids); this
    module switches a replicated register from one configuration to the
    next without losing committed writes:

    + the coordinator {e seals} the old epoch: every old member is
      asked to stop serving it (clients get a NACK and retry) and
      report its (version, value).  The phase completes as soon as the
      reports cover {e any} full old-system quorum — that quorum
      intersects every old write quorum, so the freshest report is the
      latest committed version.  (Sealing everyone instead of one
      selected quorum costs no availability — a sealed quorum already
      intersects, and thereby blocks, every other quorum — and lets
      the switch route around stragglers instead of waiting on them.)
    + the freshest reported state is {e installed} on every new
      member, committing once the acks cover a new-system quorum;
    + the new epoch is {e announced} to everyone; replicas adopt it and
      resume service.

    Clients tag operations with their epoch; replicas NACK mismatched
    epochs and clients retry under the announced configuration.
    {!stale_reads} audits the history: no read — before, during or
    after any number of reconfigurations — may miss a write completed
    before it started.

    {2 Crash recovery}

    Each replica's (epoch, seal flag, state) image lives in a
    {!Sim.Durable} cell, fsynced {e before} the reply that makes a
    transition observable (write reply, seal ack, install ack) leaves
    — so an amnesiac recovery (see {!Sim.Engine.recover_at}) restores
    everything any peer could have counted on, and then re-learns the
    current epoch by asking peers over the announce path.

    A switch survives restarts of its participants: the coordinator
    re-sends seal / install requests (both handlers are idempotent) on
    a retry tick, bounded before the switch is abandoned with a
    re-announce of the old epoch.  A coordinator crash drops its
    switch; replicas it sealed reopen through a self-heal tick that
    fires only once no switch referencing their seal is in flight, so
    an early unseal can never leak an old-epoch write past a counted
    seal.

    {2 Timed-quorum mode}

    With [?lease] set, the register runs as a {e timed} quorum system
    (after Gramoli–Raynal's timed quorums for large-scale dynamic
    environments): every replica serves only under an unexpired
    validity window of [lease] time units, renewed well before expiry
    by a background tick.  A reconfiguration then needs {e no}
    structural quorum of the old system: renewal grants are withheld
    from the moment the switch launches, while members keep serving
    the old epoch until their individual leases expire — the switch
    drains the old configuration instead of sealing it.  After
    [lease] plus a clock-skew margin of 0.5 every lease granted before
    the switch started has expired — no old-epoch quorum can still
    commit — and only then are the old members asked to seal and
    report, so each report reflects its member's final state including
    writes committed during the drain.  The install fires once a
    structural quorum of reports is in (freshness then guaranteed by
    intersection), or best-effort when the retry budget runs out with
    at least one report; a drain that gathered {e no} reports aborts
    instead of installing blind (conservative refusal on clock-budget
    exhaustion).

    {b Safety caveat}: timed overlap is {e temporal}, not structural.
    A committed write survives the switch provided some member of its
    write quorum reports during the drain window — guaranteed when
    per-node downtime stays below the drain length, but {e not} by
    quorum intersection alone.  The chaos/bench churn runs pin seeds
    and verify 0 stale reads under this assumption; see
    EXPERIMENTS.md.

    {2 Observability}

    Every attempted switch is covered by a ["reconfig.switch"] root
    span on the coordinator (status [Ok] on commit, [Error] on
    abandon / crash), so reconfiguration downtime is recoverable from
    the span collector via {!Obs.Trace_analysis.span_windows}. *)

type t
type msg

val of_config :
  msg Sim.Engine.t ->
  ?config:Client_config.t ->
  ?with_fd:bool ->
  ?lease:float ->
  ?switch_retry:float ->
  initial:Quorum.System.t ->
  unit ->
  t
(** The register on [engine]; it installs its handlers there.  Of the
    {!Client_config.t} record (default
    {!Client_config.default}) [durability] and [timeout] always apply
    and [fd] only with [with_fd] (below); the register has no rpc
    layer of its own and ignores [retries] and [routing].

    [with_fd] (default [false]) attaches a {!Sim.Failure_detector}:
    every process heartbeats every other, and quorum selection and the
    coordinator's reachability check use the {e selecting node's}
    suspected-live view instead of the engine's omniscient live-set.
    Off, no heartbeats exist and the register is bit-identical to the
    historical omniscient one.

    The engine's node count is the universe, which must accommodate
    every configuration, [initial] included; processes beyond the
    current configuration's [n] are spares.  [durability] (default
    {!Sim.Durable.instant}) configures the replicas' durable store;
    a non-zero fsync latency delays write / seal / install acks.

    [lease] switches the register into timed-quorum mode (see above):
    replicas serve only under a validity window of [lease] time units
    and reconfigurations drain leases instead of sealing a structural
    quorum; it must be positive.

    [switch_retry] (default [timeout]) is the coordinator's retry-tick
    interval: each tick re-sends the current phase's request to the
    members that have not acked yet (a bounded number of rounds per
    phase), so a participant dying mid-switch is routed around instead
    of stalling the switch.  Smaller values make switches converge
    faster under churn at the cost of extra maintenance traffic. *)

val read : t -> client:int -> unit
val write : t -> client:int -> value:int -> unit

val reconfigure : t -> coordinator:int -> Quorum.System.t -> unit
(** Start the seal / install / announce sequence from [coordinator],
    switching to the given system ([n <= universe]).  Concurrent
    reconfigurations are refused (counted). *)

val current_epoch : t -> int
val epoch_switches : t -> int

val switch_in_flight : t -> bool
(** A reconfiguration is currently sealing / draining / installing. *)

val refused_switches : t -> int
(** Reconfigurations refused because one was already in flight. *)

val lease_refusals : t -> int
(** Timed mode only: operations NACKed solely because the replica's
    validity window had expired (conservative refusal on clock-budget
    exhaustion); 0 in structural mode. *)

val reads_ok : t -> int
val writes_ok : t -> int
val retries : t -> int
(** Operations NACKed (sealed or stale epoch) and reissued. *)

val failed : t -> int
(** Operations abandoned after exhausting retries or timing out,
    including operations killed by their own client crashing. *)

val client_crash_kills : t -> int
(** The subset of [failed] whose client crashed mid-operation — a
    client-side death, not a service refusal; availability accounting
    typically excludes these from the denominator. *)

val stale_reads : t -> int
(** Must be 0: reads never miss writes committed before they started,
    across reconfigurations: the auditor's count
    ({!Obs.Trace_analysis.stale_reads}) over {!history}. *)

val fd_view : t -> node:int -> Quorum.Bitset.t option
(** [node]'s suspected-live view, [None] without [with_fd].  This is
    the view {!Membership} consumes in failure-detector-driven mode. *)

val history : t -> Obs.Trace_analysis.hop list
(** Completed client operations in completion order, ready for
    {!Obs.Trace_analysis.audit_history}.  The register is a single
    logical cell, so every hop uses key [0]; reads carry the version
    they observed, writes the version they installed, and each hop
    names the operation's root span (["reconfig.read"] /
    ["reconfig.write"], with ["reconfig.fsync"] children for
    write-ahead waits — see {!Obs.Span}). *)
