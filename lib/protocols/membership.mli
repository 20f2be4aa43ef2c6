(** Dynamic membership: a controller that keeps a live h-triang
    register sized to the population that is actually up.

    The paper's growth rules (and their shrink inverses — see
    {!Core.Htriang}) transform one triangle into the next, but they
    speak about {e logical} elements [0, n).  This module adds the
    missing piece for an online system: a {e placement} mapping logical
    elements to physical processes of a fixed universe, so the quorum
    system handed to {!Reconfig} is always a system over the whole
    universe in which exactly the placed processes matter.  Membership
    changes then come in three flavours, all realized as ordinary epoch
    switches:

    - {e replace}: a dead member's logical slot is re-placed onto a
      live spare (same triangle, new placement);
    - {e grow}: when enough spare live processes exist, one growth rule
      is applied and the new slots are placed on live spares;
    - {e shrink}: when the live population cannot fill the current
      triangle, one shrink rule is applied and the placement contracts.

    A background controller tick runs the policy: at most one proposal
    is in flight at a time (ticks during a switch are skipped), and a proposed (triangle, placement) is {e adopted} only
    once the epoch has actually advanced — an abandoned switch leaves
    the adopted configuration untouched.  New members are admitted by
    the switch itself: the install step writes the freshest sealed
    state onto a quorum of the new system before the epoch is
    announced, and un-synced nodes refuse service by epoch mismatch
    (see {!Reconfig}).

    The controller is deterministic: ticks are pre-scheduled at fixed
    simulated times and every choice (victim placement, coordinator)
    is a deterministic function of its liveness view.

    {2 Failure-detector-driven views}

    The historical controller reads the engine's omniscient live-set.
    With [view = Fd] it instead consults the register's
    {!Sim.Failure_detector} (enabled through {!Reconfig.of_config}'s
    [with_fd]): the raw opinion is a majority vote over every live
    member's suspected-live view.  Flap hysteresis then
    gates every transition: a node is only treated as newly-dead after
    2 consecutive agreeing ticks (1 for revival), so heartbeat-loss
    bursts do not immediately cost an eviction switch.  A {e false}
    eviction (the oracle knew the victim was live) is safe — epoch
    fencing makes the evicted node NACK
    stale-epoch operations, and it rejoins through a later placement
    once suspicion clears — but it costs a switch, so it is counted
    ({!false_evictions}) for the detector-accuracy benches. *)

type t

type view = Omniscient | Fd
(** Where the controller's liveness opinion comes from: the engine
    oracle (historical, default) or the quorum-merged majority of the
    members' failure-detector views. *)

val create :
  Reconfig.msg Sim.Engine.t ->
  ?durability:Sim.Durable.config ->
  ?lease:float ->
  ?switch_retry:float ->
  ?margin:int ->
  ?view:view ->
  rows:int ->
  timeout:float ->
  unit ->
  t
(** A register over a standard [rows]-row triangle (n = rows(rows+1)/2)
    placed identically on processes [0, n) of the engine's processes
    (the universe), built on [engine] with {!Reconfig.of_config}.
    [margin] (default 2) is the spare-headroom hysteresis: grow only
    when the live population exceeds the {e grown} size by at least
    [margin] (so the adopted triangle always keeps [margin] live
    spares), and shrink as soon as live headroom over the current size
    falls below [margin/2].  The gap between the two thresholds
    prevents grow/shrink oscillation; under churn a generous margin
    keeps the replacement-switch duty cycle low.
    [lease]/[switch_retry]/[durability] and [timeout] are passed
    through to {!Reconfig.of_config} ([lease] turns the register
    timed).

    [view] (default [Omniscient]) selects the controller's liveness
    source (see above); with [Fd] the register is built with a
    failure detector tuned as {!Client_config.default}'s [fd]. *)

val reconfig : t -> Reconfig.t
(** The underlying register — reads, writes and all {!Reconfig}
    counters go through it. *)

val start : t -> period:float -> horizon:float -> unit
(** Pre-schedule controller ticks at [period, 2*period, ...) up to
    [horizon] (background events — they never keep the run alive).
    Not calling [start] leaves the membership static. *)

val tick : t -> unit
(** One controller step (exposed for targeted tests): adopt any
    committed proposal, then — unless a switch is in flight — compare
    the adopted configuration against the live set and propose at most
    one replace / grow / shrink switch. *)

val current_triangle : t -> Core.Htriang.t
val members : t -> int array
(** The adopted placement: physical process of each logical element. *)

val current_system : t -> Quorum.System.t
(** The adopted configuration as a system over the universe. *)

val proposals : t -> int
(** Switches proposed by the controller. *)

val grows : t -> int
val shrinks : t -> int
val replacements : t -> int
(** Proposals by kind ([replacements] = same triangle, new placement). *)

val false_evictions : t -> int
(** Proposals that dropped a member the engine oracle knew was live
    while the controller's view believed it dead — the availability
    cost of wrong suspicions ([Fd] views only; always 0 under
    [Omniscient]). *)
