(** Deterministic discrete-event simulation engine.

    Nodes exchange messages through a {!Network.t} and set local
    timers; the engine owns simulated time, the event queue, node
    liveness, and a split-off RNG per concern so runs are reproducible
    from a single seed.

    The message payload type is a type parameter: protocols instantiate
    ['msg] with their own variant.

    Events come in two flavours.  {e Foreground} events (the default)
    represent protocol work and keep {!run} alive; {e background}
    events ([~background:true]) are maintenance traffic — the failure
    detector's beat rounds, periodic probes — that should not by itself
    prevent a run from draining.  [run] without [~until] returns as
    soon as only background events remain.

    Events are dispatched in [(time, push order)]: simultaneous events
    run first-scheduled first.  The queue is an arena of preallocated
    struct-of-arrays event slots (an unboxed float array of times, int
    arrays for the per-kind fields and span context, a payload array and
    a thunk array) under a 4-ary min-heap of slot ids with a free list,
    so the queue itself allocates nothing per event once the arena has
    grown to the run's peak queue length.  A slot is freed before its
    handler runs: a handler that raises leaves the queue consistent,
    and the next {!run} continues with the following event.

    Every engine carries an {!Obs.t}: message, crash and drop counters
    land in its metrics registry, and foreground message lifecycles
    (send, deliver, drop — linked by a per-message uid) plus crash /
    recover transitions are appended to its trace ring.  Background
    messages and heartbeats are metered but never traced, so they
    cannot evict the protocol events a causality check needs.
    Observability never touches the engine's RNG streams: runs are
    bit-identical with or without a trace attached. *)

type 'msg t

type 'msg handlers = {
  on_message : 'msg t -> node:int -> src:int -> 'msg -> unit;
  on_crash : 'msg t -> node:int -> unit;
  on_recover : 'msg t -> node:int -> amnesia:bool -> unit;
}
(** Protocol callbacks.  [on_message] is only invoked for live
    destination nodes.  Timers are not here: each one carries its own
    callback (see {!timer}).

    Recovery is an explicit, adversarial event: [on_recover] tells the
    protocol {e how} the node came back.  With [amnesia = false] the
    node resumes with its in-memory state intact (the classic kind
    transient-crash model); with [amnesia = true] it has lost
    everything not explicitly persisted and must rebuild from its
    {!Durable} store (replay) and/or its peers (re-join) before it may
    serve again. *)

val create :
  seed:int -> nodes:int -> ?network:Network.t -> ?obs:Obs.t -> unit -> 'msg t
(** [?obs] is the observability sink shared by everything built on this
    engine (rpc layer, failure detector, protocols); a fresh private
    one is created when omitted, so instrumentation is always on.

    The engine starts with no handlers: the first message, crash or
    recovery it dispatches before {!set_handlers} raises
    [Invalid_argument "Engine: no handlers installed"], so a forgotten
    install fails loudly instead of dropping events.  A protocol's
    constructor takes the engine and installs its own handlers. *)

val set_handlers : 'msg t -> 'msg handlers -> unit
(** Install the callbacks every later dispatch goes to. *)

val obs : 'msg t -> Obs.t

(** {2 Span context}

    The engine carries an {e ambient span context}: the id of the
    {!Obs.Span} the currently-running work belongs to (-1 when none).
    {!send}, {!timer} and {!schedule} capture the ambient context into
    the events they enqueue, and dispatch restores it around the
    corresponding handler or callback — so when a replica's
    [on_message] fires, it runs under the span of the client operation
    whose message it is handling, and any replies it sends (or
    retransmit timers it arms, or fsync completions it schedules) are
    causally tagged in turn.
    Trace events recorded by the engine carry the context in
    {!Obs.Trace.event.span}.

    Context propagation is pure bookkeeping: it never touches the
    engine's RNG streams, so runs stay bit-identical with or without
    spans being opened. *)

val span_ctx : 'msg t -> int
(** The ambient span context; -1 when none. *)

val set_span_ctx : 'msg t -> int -> unit
(** Set the ambient context (protocols call this when launching an
    operation attempt so subsequent sends are tagged). *)

val with_span_ctx : 'msg t -> int -> (unit -> 'a) -> 'a
(** Run a thunk under a given context, restoring the previous one
    afterwards (also on raise). *)

val nodes : 'msg t -> int
val now : 'msg t -> float
val rng : 'msg t -> Quorum.Rng.t
(** Protocol-owned RNG stream (distinct from the network's). *)

val network : 'msg t -> Network.t
(** The network the engine routes messages through (for fault
    injection that mutates loss / partitions mid-run). *)

val is_live : 'msg t -> int -> bool
val live_set : 'msg t -> Quorum.Bitset.t
(** Fresh bitset of currently live nodes.  This is omniscient,
    simulation-level knowledge: protocols that claim realistic fault
    handling should consult a {!Failure_detector.t} instead. *)

val crashes : 'msg t -> node:int -> int
(** How many times [node] has crashed.  It moves exactly when
    [on_crash] runs: a crash scheduled for a node that is already down
    changes nothing.  Work deferred on a node's behalf (an ack waiting
    for its fsync, a request waiting for the processor) compares the
    count at scheduling and at firing to tell whether the node crashed
    in between, even if it has since recovered. *)

val send : ?background:bool -> 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a message; it is silently lost if dropped by the network,
    the source is dead now, or the destination is dead at delivery
    time.  Self-sends are delivered with zero latency. *)

val timer :
  ?background:bool ->
  'msg t ->
  node:int ->
  delay:float ->
  (unit -> unit) ->
  int
(** [timer t ~node ~delay f] runs [f] on [node] after [delay] and
    returns a handle that names this one event, for {!cancel}.  [f]
    runs only if [node] is live when the timer fires (a crash drops the
    node's timers; a timer armed before a crash still runs if the node
    has recovered by then), under the span context that was ambient
    when the timer was armed, and is profiled as
    {!Obs.Prof.Dispatch_timer}.  The engine holds [f] only while the
    timer is queued: firing or cancelling it lets go of the closure.
    Raises [Invalid_argument] on a bad node or a negative delay. *)

val cancel : 'msg t -> int -> unit
(** Take the timer a handle names out of the queue in O(log n), so it
    is never dispatched.  A handle whose event has already fired or
    been cancelled names nothing any more: cancelling it does nothing,
    even after its slot went to a newer event.

    Cancelling changes nothing a run observes except the work it skips.
    A cancelled foreground timer that had stayed queued would have been
    dispatched as a no-op and kept {!run} alive until its instant, so
    the engine remembers the [(time, push order)] of the latest such
    timer the dispatch loop has not passed.  When only background
    events remain, the run still dispatches those that come before it,
    then moves the clock and the dispatch position (see {!take_beats})
    to it and drains there — or stops at [until] if it lies beyond.
    Cancelled events are not dispatched, so they do not count in
    {!events_dispatched} or against [max_events]. *)

val crash_at : 'msg t -> time:float -> node:int -> unit

val recover_at : ?amnesia:bool -> 'msg t -> time:float -> node:int -> unit
(** Schedule the node's recovery.  [~amnesia:true] (default false)
    delivers an amnesiac recovery — the handler sees
    [on_recover ~amnesia:true], the [sim.recoveries] counter is
    labeled [amnesia=true] and the trace event carries an ["amnesia"]
    label. *)

val schedule : ?background:bool -> 'msg t -> time:float -> (unit -> unit) -> unit
(** Run an arbitrary thunk at an absolute simulated time (workload
    injection).  [~background:true] schedules maintenance work that
    should not keep {!run} alive on its own. *)

(** {2 Heartbeats}

    A heartbeat carries no payload: all its receiver learns is who sent
    it and when it arrived.  So it never enters the event queue.  A
    failure detector's beat round is one {!beat_round}: for every peer,
    in ascending order, it does the sending half of
    [send ~background:true] — the network's cut, loss and jitter draws
    on the engine's RNG ({!Network.draw}) — and reserves the seq the
    delivery event would have taken.  Each arrival becomes a record in
    the receiver's inbox instead.  The round's counts are added once,
    and only when positive: [n - 1] to [sim.messages_background] and
    {!messages_background}, and the beats the network lost to
    [sim.messages_dropped{reason=net}] and {!messages_dropped}.  So a
    round moves every counter exactly as [n - 1] background sends
    would, and creates no metric cell they would not have.

    {!take_beats} hands a receiver the records that have {e arrived}:
    those the dispatch loop has passed in [(time, seq)] order — the
    event being dispatched, or between runs the last one dispatched
    (after a run that stopped at [until], everything due by [until]) —
    and that found the receiver live, judged from its last crash and
    last recovery.  Applied in the order returned, they give exactly
    the state a handler would have built had each arrival been a
    dispatched event.  The liveness judgement is exact when the
    receiver's records are taken at each of its recoveries, before its
    state is reset; {!Failure_detector.on_recover} does.  Every beat of
    a round takes a fresh seq, so none of them has arrived when the
    round returns: a receiver's records taken just before a round and
    just after it are the same.

    Heartbeats are not events: they are not counted by
    {!events_dispatched}, {!messages_delivered} or
    [sim.messages_delivered], a receiver found dead is not counted as a
    [dead_dst] drop, and they do not use up [max_events]. *)

type beats = private {
  mutable count : int;
  mutable times : Float.Array.t;  (** arrival times, first [count] *)
  mutable srcs : int array;  (** senders, first [count] *)
}
(** Heartbeat arrivals, earliest first.  Engine-owned: valid until the
    next {!take_beats} on the same engine. *)

val beat_round : 'msg t -> src:int -> unit
(** Send a heartbeat from [src] to every other node, in ascending
    order of receiver; nothing when [src] is dead. *)

val take_beats : 'msg t -> node:int -> beats
(** Remove and return the heartbeats that have arrived at [node] since
    the last call. *)

val beats_pending : 'msg t -> node:int -> int
(** Heartbeats addressed to [node] and not yet taken: still in flight,
    or arrived and waiting for {!take_beats}. *)

val messages_sent : 'msg t -> int
(** Foreground messages sent (protocol traffic, including
    retransmissions and acks). *)

val messages_background : 'msg t -> int
(** Background messages sent, heartbeats included, counted separately
    so per-operation message metrics stay meaningful. *)

val messages_delivered : 'msg t -> int
(** Messages handed to [on_message]; heartbeats are not. *)

val messages_dropped : 'msg t -> int
(** Messages lost in flight — by the network or to a dead destination
    (see the [sim.messages_dropped{reason=..}] metric for the split).
    Heartbeats count when the network drops them only. *)

val events_dispatched : 'msg t -> int
(** Events popped off the queue and dispatched over this engine's
    lifetime (messages, timers, crashes, recoveries, thunks; not
    heartbeats, not cancelled timers). *)

val liveness_changes : 'msg t -> int
(** Crash and recovery transitions so far, each of which changed one
    node's {!is_live}.  Unchanged between two reads means every node's
    liveness is unchanged too, so an observer that mirrors the liveness
    of all nodes re-reads it only when this moves. *)

type outcome =
  | Drained  (** no foreground events left *)
  | Reached_until  (** stopped at the [until] horizon *)
  | Budget_exhausted  (** [max_events] dispatched without draining *)

val run_status : ?until:float -> ?max_events:int -> 'msg t -> outcome
(** Drain the event queue up to time [until] (default: until no
    foreground event remains, nor a cancelled one it would have waited
    for; see {!cancel}).  [max_events] (default 10 million) counts
    dispatched events, heartbeats and cancelled timers excluded, and
    guards against runaway protocols — e.g. a retransmission loop that
    never gives up; exhaustion is reported (and counted, see
    {!budget_exhaustions}) rather than raised. *)

val run : ?until:float -> ?max_events:int -> 'msg t -> unit
(** Like {!run_status} but raises [Failure] when the event budget is
    exhausted, so runaway protocols fail loudly. *)

val budget_exhaustions : 'msg t -> int
(** Number of times a run on this engine hit its event budget. *)
