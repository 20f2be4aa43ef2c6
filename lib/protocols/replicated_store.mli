(** Quorum-replicated versioned register / KV store (Gifford 1979
    style), the data-management protocol the h-grid of section 4.1 was
    designed for.

    Every node holds a replica: a map from key to (version, value).
    A {e write} first reads versions from a read quorum, then installs
    (max version + 1, value) on a write quorum; a {e read} collects a
    read quorum and returns the value with the highest version.  Any
    pair of (read system, write system) with intersecting quorums
    works: use [Hgrid.read_system] / [Hgrid.write_system] for the
    paper's replicated-data setting, or one symmetric system (e.g.
    h-triang) for both.

    All requests and replies ride {!Sim.Rpc} (ack, retransmission,
    duplicate suppression), so the store tolerates message loss, loss
    bursts and transient partitions; duplicate-write installs are
    impossible.  Quorums are selected from the client's
    {!Sim.Failure_detector} view; when the rpc layer dead-letters a
    request (an unreachable quorum member) the attempt fails over to a
    freshly selected quorum immediately instead of waiting out the
    attempt timeout.

    Consistency is audited: each completed read must return a version
    at least as high as any write completed before it started
    (regular-register semantics under the intersection property);
    {!stale_reads} counts the violations in the store's {!history}.

    {2 Sessions, pipelining and batching}

    {!Session} is the primary client entry: a session pipelines up to
    [window] operations concurrently (per-key FIFO — a later op on a
    key never overtakes an earlier one, so each key's writes commit in
    submission order), queues the overflow in a bounded backlog (the
    bound sheds under open-loop overload), and optionally coalesces
    outgoing quorum requests into [Batch_req] envelopes of up to
    [batch_size] requests per destination, flushed on size or after
    [batch_delay].  A replica serves a batch in one rpc exchange and
    persists all its writes through {e one}
    {!Sim.Durable.append_batch} flush — k writes, one fsync, one
    batched ack.  {!read} and {!write} submit one op through a fresh
    window-1 unbatched session each, the historical per-op code path
    (same op ids, RNG draws and events).

    {2 Sharding}

    Passing a {!Shard_router} to {!of_config} routes every per-key
    quorum selection to the key's sub-triangle / sub-grid, so disjoint
    keys hit disjoint subquorums and aggregate throughput scales with
    the shard count; amnesiac recoverers then re-sync against their
    own shard's read system (spares outside every shard have nothing
    to re-establish).

    {2 Durability and crash recovery}

    Replicas persist through a {!Sim.Durable} store with write-ahead
    acknowledgement: an incoming write is appended to the replica's
    durable log and the [Write_ack] leaves only once the append has
    fsynced, so an acknowledged write can never be lost to a crash.
    With the default {!Sim.Durable.instant} configuration the fsync is
    free and the protocol behaves exactly like the classic
    stable-storage model.

    Recovery distinguishes the two models of
    {!Sim.Engine.handlers.on_recover}.  A plain recovery resumes with
    memory intact.  An {e amnesiac} recovery wipes the in-memory table,
    replays the durable log prefix, and then runs an explicit re-join
    protocol: the replica refuses [Version_req]/[Write_req] (clients
    see a [Recovering] nack and fail over to another quorum) until it
    has synchronized state from a full read quorum, which restores
    regular-register freshness before it serves again.  Rejoining
    replicas still answer sync requests from their replayed state —
    write-ahead acking makes that safe, and it keeps a majority-amnesia
    restart from deadlocking. *)

type t
type msg

type service = { per_req : float; per_batch : float }
(** Replica service-time model: handling a request (or batch) occupies
    the node's processor for [per_batch + k * per_req] simulated time,
    serialized per node.  The default zero-cost model dispatches
    synchronously — the historical behaviour.  A non-zero cost is what
    makes quorum {e size} observable as throughput: nodes sitting in
    every quorum saturate first, so smaller/disjoint quorums win. *)

val no_service : service
val service : ?per_req:float -> ?per_batch:float -> unit -> service
(** Raises [Invalid_argument] on negative costs. *)

val of_config :
  msg Sim.Engine.t ->
  ?config:Client_config.t ->
  ?router:Shard_router.t ->
  ?service:service ->
  read_system:Quorum.System.t ->
  write_system:Quorum.System.t ->
  unit ->
  t
(** The store on [engine], which must have one node per process of
    the universe.  It installs its handlers on the engine, and its
    failure detector starts heartbeating.  All client-side tunables
    live in the {!Client_config.t} record (default
    {!Client_config.default}; every field is honoured — [timeout] is
    the per-attempt lifetime, [retries] the quorum re-selections after
    a timeout).  Both systems must span the same universe; a
    [router]'s universe must match (its shard systems then drive every
    per-key quorum selection).

    [config.retries] interacts with the rpc layer: a single attempt
    already survives transient loss via retransmission.  Up to 6 sends
    go out: the first retransmit follows after
    {!Client_config.rpc_timeout} stretched by up to 30 % jitter, and
    each later delay is a decorrelated draw in
    [\[rpc_timeout, 3 * previous\]], capped at [32 * rpc_timeout] (see
    {!Sim.Rpc.create}).  So attempt-level retries only matter when a
    quorum {e member} is down or cut off and a different quorum must
    be chosen.  Keep [config.timeout] comfortably above the rpc
    timeout so the rpc layer gets a chance to push a message through
    before the whole attempt is abandoned. *)

val retried : t -> int
(** Attempts that failed (timeout or dead-letter) and were retried. *)

(** {2 Sessions} *)

type outcome =
  | Read_done of { version : int; value : int }
  | Write_done of { version : int }
  | Timed_out  (** all attempt retries exhausted (or the client died) *)
  | Unavailable  (** no quorum in the client's failure-detector view *)

type request = Get of { key : int } | Put of { key : int; value : int }

(** The sessioned client API: create once per client conversation,
    [submit] freely, read the counters when the run drains. *)
module Session : sig
  type store := t
  type t

  val create :
    store ->
    client:int ->
    ?window:int ->
    ?batch_size:int ->
    ?batch_delay:float ->
    ?max_queue:int ->
    unit ->
    t
  (** A session for [client].  [window] (default 1) in-flight ops;
      [batch_size] (default 1 — unbatched, bare wire messages exactly
      as before sessions) requests per [Batch_req] envelope;
      [batch_delay] (default 0, meaning "end of the current simulated
      instant") bounds how long a partial batch may wait; [max_queue]
      (default unbounded) bounds the backlog beyond the window —
      submissions past the bound are shed.  Raises [Invalid_argument]
      on out-of-range parameters. *)

  val submit :
    store -> t -> ?on_complete:(outcome -> unit) -> request -> bool
  (** Launch (window permitting, per-key FIFO), or enqueue, or shed —
      [false] means shed.  [on_complete] fires exactly once, when the
      op finishes in any way. *)

  val drain : store -> t -> unit
  (** Flush partially filled batches now (e.g. at the end of a
      closed-loop run).  Completion of in-flight ops still needs
      engine time. *)

  val id : t -> int
  val client : t -> int
  val window : t -> int
  val in_flight : t -> int
  val queued : t -> int
  val submitted : t -> int
  val completed : t -> int
  val shed : t -> int
  val peak_queue : t -> int
end

val read : t -> client:int -> key:int -> unit
val write : t -> client:int -> key:int -> value:int -> unit
(** Fire-and-record: one op through a fresh window-1 unbatched
    {!Session} (a shared session would change per-key FIFO order);
    results land in the statistics below. *)

val reads_ok : t -> int
val writes_ok : t -> int
val unavailable : t -> int
(** Operations refused because the client's live-view contained no
    quorum (at submission or between phases). *)

val timeouts : t -> int
val stale_reads : t -> int
(** Completed reads that returned a version older than a write that
    finished before the read began — must be 0: the auditor's count
    ({!Obs.Trace_analysis.stale_reads}) over {!history}. *)

val batches : t -> int
(** [Batch_req] envelopes sent across all sessions. *)

val batched_ops : t -> int
(** Requests carried inside those envelopes. *)

val shed : t -> int
(** Submissions dropped by full session backlogs across all sessions. *)

(** {2 Suspicion-aware routing}

    With [config.routing.hedge] on (see {!Client_config.routing}), an
    unbatched attempt arms one hedge timer at the worst 0.9 quantile
    of the recent reply latencies of its quorum's members, never
    earlier than 2.0 time units; when it fires, every member still unheard-from has its request duplicated
    to a distinct backup replica from the client's unsuspected view,
    and the attempt completes as soon as the {e acked} set contains a
    full quorum of the phase's system — replicas are idempotent and
    the client dedups replies by op id, so duplicates cost messages,
    never safety.  With [config.routing.degraded_reads] on, a write
    whose client view holds no write quorum is refused immediately
    (degraded read-only mode) instead of burning the attempt timeout;
    reads keep flowing.  Both knobs default off, and off means {e
    bit-identical} to the pre-routing store: no hedge timers, no extra
    sends, completion exactly when every originally-selected member
    acked. *)

val hedges : t -> int
(** Hedge requests sent to backup replicas ([store.hedges] metric). *)

val degraded_writes : t -> int
(** Writes refused fast by the degraded read-only mode
    ([store.degraded_writes] metric). *)

val degraded : t -> bool
(** Whether the store is currently latched in degraded read-only mode
    (no unsuspected write quorum at the last write attempt). *)

val fd_stats : t -> node:int -> Sim.Failure_detector.stats
(** [node]'s failure-detection accuracy totals against the engine's
    oracle (see {!Sim.Failure_detector.stats}). *)

val dead_letters : t -> int
(** Messages the rpc layer gave up on. *)

val retransmissions : t -> int
(** Rpc retransmissions spent on store traffic. *)

val op_latency : t -> Obs.Metrics.histogram
(** Completed-operation latency samples ([store.op_latency] in the
    engine's metrics registry, split by the [op=read|write] label). *)

val history : t -> Obs.Trace_analysis.hop list
(** Completed client operations in completion order, ready for
    {!Obs.Trace_analysis.audit_history}: reads carry the version they
    observed, writes the version they installed, and each hop names
    the operation's root span (every op opens a ["store.read"] /
    ["store.write"] root span with per-attempt and per-fsync child
    spans — see {!Obs.Span}). *)

(** {2 Crash-recovery introspection} *)

val rejoins : t -> int
(** Amnesiac re-join syncs completed ([store.rejoins] metric). *)

val rejoin_refusals : t -> int
(** Requests nacked by a replica that was still re-joining
    ([store.rejoin_refusals] metric). *)

val rejoining : t -> node:int -> bool
(** Whether [node] is currently refusing service pending a re-join
    sync. *)

val replica_value : t -> node:int -> key:int -> (int * int) option
(** The replica's in-memory [(version, value)] for [key] — test
    visibility into what a recovery replayed or a sync installed. *)

val log_length : t -> node:int -> int
(** Durable log records currently held for [node] (see
    {!Sim.Durable.log_length}). *)
