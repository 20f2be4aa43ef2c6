(** Quorum-based distributed mutual exclusion (Maekawa 1985 style),
    parameterized by any quorum system.

    This is the protocol the paper's introduction sketches: to enter
    the critical section a node obtains permission from every member of
    a quorum; the intersection property makes two simultaneous critical
    sections impossible.  The naive sketch deadlocks, so the full
    arbiter protocol is implemented: REQUEST / GRANT / RELEASE plus the
    INQUIRE / YIELD / FAILED deadlock-avoidance handshake with a total
    priority order on requests.

    Every node is simultaneously a {e client} (it may request the
    critical section) and an {e arbiter} (it grants its permission to
    one client at a time).

    {2 Resilience}

    All protocol traffic rides {!Sim.Rpc} (ack + bounded retransmission
    with backoff), so the protocol runs correctly over lossy networks —
    no zero-loss assumption.  Quorums are selected from the node's
    {!Sim.Failure_detector} view (suspected-live nodes), not the
    engine's omniscient live-set; while an acquisition is outstanding a
    watchdog re-selects an alternate quorum when an ungranted member
    becomes suspect ({!reselections}) and abandons the attempt outright
    after [acquire_timeout] ({!abandoned}).

    Safety never depends on the failure detector being right: arbiters
    ignore suspicion entirely and release a grant only on RELEASE,
    YIELD, or an [Alive] recovery announcement from the grantee itself
    (clients lose their volatile state on crash; arbiter grant state is
    stable).  A false suspicion can therefore cost liveness (an extra
    re-selection) but never a safety violation.

    Liveness survives dead-lettered releases too: a RELEASE whose
    sender was unreachable long enough for the rpc layer to give up
    would otherwise leave the arbiter granted to an abandoned request
    forever.  Each arbiter runs a background {e stale-grant probe}: a
    grant still held after two consecutive probe ticks draws an
    INQUIRE, and a client inquired about a request that is no longer
    its active one answers RELEASE (it can never use that grant), so
    stuck grants are reclaimed once connectivity returns.

    Safety (at most [capacity] nodes in the critical section) is
    asserted at runtime and surfaced through {!violations}.

    {2 Durability and amnesia}

    The grant register is the one piece of arbiter state mutual
    exclusion depends on: it is held in a {!Sim.Durable} cell and a
    GRANT leaves the arbiter only once the decision has fsynced
    (write-ahead), so even an {e amnesiac} recovery (see
    {!Sim.Engine.recover_at}) restores it faithfully.  Release
    tombstones ride the durable log.  Everything else an arbiter keeps
    (queue, inquire flag, probe state, alive floors) is liveness-only
    and is rebuilt after amnesia by the stale-grant probe, client
    watchdogs and fresh [Alive] announcements — at worst costing extra
    re-selections, never a violation.

    Usage:
    {[
      let engine = Engine.create ~seed ~nodes:system.n () in
      let mx = Mutex.of_config engine ~system ~cs_duration:1.0 () in
      Engine.schedule engine ~time:3.0 (fun () -> Mutex.request mx ~node:2);
      Engine.run engine
    ]} *)

type t
type msg

val of_config :
  msg Sim.Engine.t ->
  ?config:Client_config.t ->
  ?capacity:int ->
  system:Quorum.System.t ->
  cs_duration:float ->
  unit ->
  t
(** The mutex on [engine], whose node count must equal [system.n].  It
    installs its handlers on the engine and starts the heartbeat
    traffic and the arbiters' probe chains.  Client tunables live in
    the {!Client_config.t} record (default {!Client_config.default}).
    Honoured fields: [fd] (the failure detector, see
    {!Sim.Failure_detector.create}),
    [durability] (the arbiters' durable store — a non-zero fsync
    latency delays GRANTs, torn-tail mode corrupts the last in-flight
    tombstone on crash), and [timeout], read as the {e acquire}
    timeout: how long a node keeps retrying an acquisition (across
    quorum re-selections) before abandoning it.  [retries] is ignored
    — requests queue at the arbiters instead of retrying — and so is
    [routing]: grants are stateful, so the mutex never duplicates a
    request to a backup; its watchdog reselects around suspected
    members instead.

    [capacity] (default 1) is the number of simultaneous critical
    sections the system is supposed to allow: 1 for a coterie, [k]
    for a k-coterie (see [Systems.K_coterie]).  The reliable-delivery
    layer ({!Sim.Rpc}) retransmits after {!Client_config.rpc_timeout}. *)

val request : t -> node:int -> unit
(** Ask [node] to acquire the critical section now (queued if it is
    already waiting or inside; no-op if it is dead). *)

val entries : t -> int
(** Completed critical-section entries. *)

val violations : t -> int
(** Safety violations observed — moments with more than [capacity]
    holders (must be 0). *)

val max_concurrency : t -> int
(** Peak number of simultaneous critical-section holders; for a
    k-coterie under contention this should reach [k]. *)

val unavailable : t -> int
(** Requests dropped because the node's live-view contained no quorum
    at selection time. *)

val reselections : t -> int
(** Attempts re-issued on an alternate quorum after a member was
    suspected or a send was dead-lettered. *)

val abandoned : t -> int
(** Acquisitions given up after [acquire_timeout]. *)

val dead_letters : t -> int
(** Protocol messages the rpc layer gave up on. *)

val retransmissions : t -> int
(** Rpc retransmissions spent on protocol messages. *)

val acquire_latency : t -> Obs.Metrics.histogram
(** Request-to-entry latency samples ([mutex.acquire_latency] in the
    engine's metrics registry). *)
