(** One-stop chaos-run dashboard: run a protocol through one fault
    scenario with full observability (metrics + trace + spans), analyze
    the recording with {!Obs.Trace_analysis}, and render everything as
    a markdown report.

    The report bundles the chaos summary row, per-operation latency
    percentiles with the critical-path breakdown (network / fsync /
    queueing / retransmit shares), the consistency-audit verdict with
    witnessing evidence, trace-ring health (including a loud warning
    when events were evicted) and the full metrics registry.  Backs
    [quorumctl report] and the [bench latency] target. *)

type protocol = Experiment.protocol = Mutex | Store | Reconfig | Throughput

type t = {
  protocol : protocol;
  system : string;
  scenario : string;
  seed : int;
  horizon : float;
  summary : string;  (** chaos header + row, fixed width *)
  profiles : Obs.Trace_analysis.op_profile list;
  audit : Obs.Trace_analysis.audit option;
      (** [None] for the mutex (it records no read/write history) *)
  obs : Obs.t;  (** the run's full recording, for further digging *)
}

val run :
  ?seed:int ->
  ?horizon:float ->
  ?trace_capacity:int ->
  ?profile:bool ->
  ?span_keep_1_in:int ->
  ?next:Quorum.System.t ->
  protocol:protocol ->
  system:Quorum.System.t ->
  scenario:string ->
  unit ->
  t
(** Run the protocol's {!Experiment.cell} on [system] (and [next],
    reconfig only) through one seeded chaos scenario (label as in
    {!Chaos.scenario_of_label}; raises [Invalid_argument] on a miss)
    and analyze it.  [seed] and [horizon] default to the bench's pins
    ({!Experiment.seed}, 400), [trace_capacity] to [2^19] events (big
    enough that standard runs evict nothing).  [profile] (default
    true) turns on the {!Obs.Prof} engine self-profile, rendered as the
    report's "Engine profile" section — profiling is behaviorally
    inert, so the simulated results are unchanged by it.
    [span_keep_1_in] installs the deterministic span sampler (see
    {!Obs.create}); the trace-health section then reports the sampling
    rate. *)

val to_markdown : t -> string
