(** Chaos harness: run the quorum protocols through reproducible fault
    scenarios and report protocol health.

    A {!scenario} bundles a simulation horizon with a {!plan} — base
    iid loss, loss bursts, gray failures (latency inflation), scheduled
    partitions and crash/recovery churn.  {!standard} builds the
    canonical scenario set used by [bench chaos], [quorumctl chaos] and
    the chaos-smoke tests; everything is parameterized by the seed, so
    a reported run is replayed exactly by re-running with the same seed
    and scenario.

    Safety counters ({!mutex_report.violations},
    {!store_report.stale_reads}) must stay 0 in every scenario — the
    fault plans may cost throughput and latency, never correctness. *)

type plan = {
  loss : float;  (** base iid message-drop probability *)
  bursts : (float * float * float) list;
      (** (at, duration, extra_loss) transient loss bursts *)
  gray : (int * float * float * float) list;
      (** (node, at, duration, slowdown) gray-failure windows *)
  links : (float * float * int * int * float) list;
      (** (at, duration, src, dst, extra_loss) asymmetric directed-link
          degradation windows, see
          {!Sim.Failure_injector.link_windows} *)
  partitions : (float * float * int list) list;
      (** (at, duration, group_a) network cuts, healed independently *)
  churn : (float * float) option;
      (** (p, mean_downtime) iid crash/recovery churn, see
          {!Sim.Failure_injector.iid_faults} *)
  churn_sustained : (float * float) option;
      (** (rate, mean_downtime) sustained Poisson join/leave churn, see
          {!Sim.Failure_injector.poisson_churn} *)
  restarts : (float * float * int list) list;
      (** (at, down_for, nodes) scripted crash-restart windows, see
          {!Sim.Failure_injector.restarts} *)
  amnesia : bool;
      (** make every recovery in this plan (restarts {e and} churn)
          amnesiac: recovered nodes keep only what they persisted *)
  fsync : float;
      (** modeled fsync latency of the protocols' durable stores;
          0 restores the classic free-stable-storage model *)
}

val calm : plan
(** No faults at all; the baseline. *)

type scenario = { label : string; horizon : float; plan : plan }

val standard : n:int -> horizon:float -> scenario list
(** The canonical five: [baseline], [loss+burst] (5% iid + a 30%
    burst), [partition] (5% iid + a transient minority cut),
    [churn-iid] (nodes down 10% of the time), [gray] (two slow-node
    windows). *)

val recovery : n:int -> horizon:float -> scenario list
(** The crash-recovery family, all with a non-zero fsync latency so
    write-ahead ack gating is actually exercised: [restart] (two
    minority crash-restart windows landing mid-traffic), [amnesia] (a
    minority restarts having lost volatile state and must replay +
    re-join), [amnesia-maj] (a majority loses its memory at once — any
    state not persisted is gone from every quorum). *)

val churn : n:int -> horizon:float -> scenario list
(** The sustained-churn family: [churn] (Poisson join/leave keeping
    ~10% of the population down on average), [churn-amnesia] (leavers
    come back amnesiac and must be re-synced on admission) and
    [churn-partition] (churn with a minority cut on top).  These are
    the scenarios the dynamic-membership controller (see
    {!Membership}) is built for; {!run_churn} runs them. *)

val fd_family : n:int -> horizon:float -> scenario list
(** The failure-detection stress family — each scenario makes a
    detector wrong in one specific way: [gray-flap] (a node flapping
    in and out of gray failure — slow enough to miss heartbeats, alive
    enough that suspecting it is wrong half the time), [asym-link]
    (directed link loss so observers {e disagree} about who is dead;
    no crashes — every suspicion is false), [suspect-burst] (heavy
    loss bursts swallowing whole heartbeat rounds; again no crashes).
    {!run_fd} runs them with the detector as the unit under test. *)

val scenario_of_label : n:int -> horizon:float -> string -> scenario
(** Look a scenario up by label across {!standard}, {!recovery},
    {!churn} and {!fd_family}; raises [Invalid_argument] listing the
    valid labels on a miss. *)

val durability_of_plan : plan -> Sim.Durable.config
(** The durable-store configuration a plan implies (its [fsync]
    latency), as passed to the protocols by the runners below. *)

val apply : 'msg Sim.Engine.t -> rng:Quorum.Rng.t -> scenario -> unit
(** Install the scenario's fault plan on a freshly built engine (base
    [loss] is {e not} applied — pass it to [Network.create]). *)

type mutex_report = {
  label : string;
  system : string;
  seed : int;  (** the run is replayed exactly by reusing this seed *)
  issued : int;
  entries : int;
  violations : int;  (** must be 0 *)
  unavailable : int;
  reselections : int;
  abandoned : int;
  dead_letters : int;
  retransmissions : int;
  mean_wait : float;
  msgs_per_entry : float;  (** foreground messages only *)
  budget_hit : bool;  (** event budget exhausted — run truncated *)
}

val run_mutex :
  ?seed:int ->
  ?rate:float ->
  ?cs_duration:float ->
  ?acquire_timeout:float ->
  ?obs:Obs.t ->
  system:Quorum.System.t ->
  scenario ->
  mutex_report
(** One seeded mutex run under the scenario: Poisson acquisition
    requests at [rate] per time unit over the horizon, then drain.
    Pass [?obs] to keep the run's metrics registry, trace and spans
    for inspection or dumping; omitted, the run still records into a
    private one. *)

val run_mutex_h :
  ?seed:int ->
  ?rate:float ->
  ?cs_duration:float ->
  ?acquire_timeout:float ->
  ?obs:Obs.t ->
  system:Quorum.System.t ->
  scenario ->
  mutex_report * Mutex.t
(** {!run_mutex}, additionally handing back the protocol instance so
    post-run state (e.g. for {!Obs.Trace_analysis}) stays reachable. *)

type store_report = {
  label : string;
  system : string;
  seed : int;  (** the run is replayed exactly by reusing this seed *)
  issued : int;
  reads_ok : int;
  writes_ok : int;
  unavailable : int;
  timeouts : int;
  retried : int;
  stale_reads : int;  (** must be 0 *)
  rejoins : int;  (** amnesiac re-join syncs completed *)
  rejoin_refusals : int;
      (** requests nacked by replicas still re-joining *)
  dead_letters : int;
  retransmissions : int;
  mean_latency : float;
  budget_hit : bool;
}

val run_store :
  ?seed:int ->
  ?rate:float ->
  ?read_fraction:float ->
  ?keys:int ->
  ?op_timeout:float ->
  ?retries:int ->
  ?obs:Obs.t ->
  read_system:Quorum.System.t ->
  write_system:Quorum.System.t ->
  name:string ->
  scenario ->
  store_report
(** One seeded replicated-store run: a read/write mix at [rate] ops
    per time unit; [name] labels the (read, write) system pair in the
    report.  [read_fraction] (default 0.7) is the mix's share of reads;
    see {!Workload.read_write_mix}. *)

val run_store_h :
  ?seed:int ->
  ?rate:float ->
  ?read_fraction:float ->
  ?keys:int ->
  ?op_timeout:float ->
  ?retries:int ->
  ?obs:Obs.t ->
  read_system:Quorum.System.t ->
  write_system:Quorum.System.t ->
  name:string ->
  scenario ->
  store_report * Replicated_store.t
(** {!run_store}, additionally handing back the store so its
    {!Replicated_store.history} can feed
    {!Obs.Trace_analysis.audit_history}. *)

type fd_report = {
  label : string;
  detector : string;
      (** ["fixed(tau)"] or ["accrual(phi)"], ["+hedge"] when hedging *)
  seed : int;  (** the run is replayed exactly by reusing this seed *)
  issued : int;
  ok : int;
  stale_reads : int;  (** must be 0 *)
  unavailable : int;
  hedges : int;  (** hedge requests sent to backup replicas *)
  degraded_writes : int;  (** writes refused by degraded read-only mode *)
  detections : int;  (** dead-peer suspicion onsets, all observers *)
  mean_detect : float;  (** mean crash-to-suspicion latency *)
  max_detect : float;
  false_positives : int;  (** suspicion onsets against live peers *)
  missed : int;  (** samples with an overdue undetected death *)
  transitions : int;  (** suspicion flips, either direction *)
  p99_latency : float;  (** worse of the read / write p99 *)
  budget_hit : bool;
}

val run_fd :
  ?seed:int ->
  ?rate:float ->
  ?keys:int ->
  ?op_timeout:float ->
  ?fd_period:float ->
  ?fd_timeout:float ->
  ?accrual:float ->
  ?hedge:bool ->
  ?degraded_reads:bool ->
  ?obs:Obs.t ->
  read_system:Quorum.System.t ->
  write_system:Quorum.System.t ->
  name:string ->
  scenario ->
  fd_report
(** One seeded failure-detection run: a replicated store (clients
    route by detector view) under the scenario, with the detector
    configuration as the independent variable — [fd_timeout] alone
    gives the fixed-timeout detector, [accrual] switches to the
    phi-accrual detector at that threshold, [hedge] /
    [degraded_reads] enable the suspicion-aware routing knobs (see
    {!Client_config.routing}).  The report aggregates every node's
    oracle-measured accuracy counters; sweeping [fd_timeout] or
    [accrual] maps the detection-time vs false-positive tradeoff. *)

val run_fd_h :
  ?seed:int ->
  ?rate:float ->
  ?keys:int ->
  ?op_timeout:float ->
  ?fd_period:float ->
  ?fd_timeout:float ->
  ?accrual:float ->
  ?hedge:bool ->
  ?degraded_reads:bool ->
  ?obs:Obs.t ->
  read_system:Quorum.System.t ->
  write_system:Quorum.System.t ->
  name:string ->
  scenario ->
  fd_report * Replicated_store.t
(** {!run_fd}, additionally handing back the store so per-node
    {!Replicated_store.fd_stats} stay reachable (the [quorumctl fd]
    table). *)

type reconfig_report = {
  label : string;
  system : string;
  seed : int;  (** the run is replayed exactly by reusing this seed *)
  issued : int;
  reads_ok : int;
  writes_ok : int;
  retries : int;
  failed : int;
  stale_reads : int;  (** must be 0 *)
  epoch_switches : int;
  final_epoch : int;
  budget_hit : bool;
}

val run_reconfig :
  ?seed:int ->
  ?rate:float ->
  ?op_timeout:float ->
  ?obs:Obs.t ->
  initial:Quorum.System.t ->
  next:Quorum.System.t ->
  name:string ->
  scenario ->
  reconfig_report
(** One seeded reconfiguration run: a read/write mix on the register
    while the configuration is switched [initial → next → initial] at
    0.35 and 0.70 of the horizon — under a recovery scenario the
    restart windows land {e during} the seal / install sequence. *)

val run_reconfig_h :
  ?seed:int ->
  ?rate:float ->
  ?op_timeout:float ->
  ?obs:Obs.t ->
  initial:Quorum.System.t ->
  next:Quorum.System.t ->
  name:string ->
  scenario ->
  reconfig_report * Reconfig.t
(** {!run_reconfig}, additionally handing back the protocol instance
    so its {!Reconfig.history} can feed
    {!Obs.Trace_analysis.audit_history}. *)

type churn_mode =
  | Static  (** the t=0 configuration is never changed *)
  | Resize  (** the {!Membership} controller replaces / grows / shrinks *)
  | Timed  (** [Resize] plus timed-quorum leases (see {!Reconfig}) *)
  | Fd
      (** [Resize] with the controller blinded: liveness comes from the
          members' quorum-merged failure-detector views (with flap
          hysteresis) instead of the engine oracle — the availability
          gap to [Resize] is the price of realistic detection *)

type churn_report = {
  label : string;
  mode : string;  (** "static" / "resize" / "timed" / "fd" *)
  seed : int;  (** the run is replayed exactly by reusing this seed *)
  issued : int;  (** ops issued by {e live} clients *)
  ok : int;  (** reads + writes completed *)
  failed : int;
  crash_kills : int;
      (** ops whose client died mid-flight (a subset of [failed]) *)
  availability : float;
      (** ok / (issued - crash_kills): a client dying mid-operation is
          not a refusal by the service *)
  retries : int;
  stale_reads : int;  (** must be 0 *)
  epoch_switches : int;
  proposals : int;  (** controller proposals (incl. abandoned) *)
  grows : int;
  shrinks : int;
  replacements : int;
  lease_refusals : int;  (** timed mode: expired-lease NACKs *)
  false_evictions : int;
      (** [Fd] mode: proposals that evicted an oracle-live member (see
          {!Membership.false_evictions}); 0 otherwise *)
  switch_downtime : float;
      (** total time some switch was in flight — merged
          ["reconfig.switch"] span windows, see
          {!Obs.Trace_analysis.span_windows} *)
  final_members : int;  (** triangle size at the end of the run *)
  budget_hit : bool;
}

val run_churn :
  ?seed:int ->
  ?rate:float ->
  ?op_timeout:float ->
  ?rows:int ->
  ?period:float ->
  ?lease:float ->
  ?margin:int ->
  ?obs:Obs.t ->
  mode:churn_mode ->
  universe:int ->
  scenario ->
  churn_report
(** One seeded availability-under-churn run: a membership-managed
    h-triang register (initially [rows] rows, identity-placed on a
    [universe]-process engine) serving a Poisson read/write mix while
    the scenario's faults land.  Clients are drawn from the live set
    at issue time, so [availability] measures the service, not the
    workload generator.  [period] is the controller tick interval
    (ignored for [Static]); [lease] the validity window for [Timed];
    [margin] (default 6) the controller's spare-headroom hysteresis
    (see {!Membership.create}). *)

val run_churn_h :
  ?seed:int ->
  ?rate:float ->
  ?op_timeout:float ->
  ?rows:int ->
  ?period:float ->
  ?lease:float ->
  ?margin:int ->
  ?obs:Obs.t ->
  mode:churn_mode ->
  universe:int ->
  scenario ->
  churn_report * Membership.t
(** {!run_churn}, additionally handing back the membership controller
    (and through it the register) for post-run inspection. *)

val mutex_header : unit -> string
val mutex_row : mutex_report -> string
val store_header : unit -> string
val store_row : store_report -> string
val reconfig_header : unit -> string
val reconfig_row : reconfig_report -> string
val churn_header : unit -> string
val churn_row : churn_report -> string
val fd_header : unit -> string
val fd_row : fd_report -> string
(** Fixed-width table rendering shared by the bench target and the
    [quorumctl chaos] / [quorumctl fd] subcommands. *)
