(** Per-process durable storage for the simulated protocols: typed
    key/value cells plus an append-only log, with modeled fsync latency
    and crash fault injection.

    A write (cell {!set} or log {!append}) initiated at simulated time
    [now] becomes {e durable} at [now + fsync_latency]; both return
    that instant so a protocol can defer its acknowledgement until the
    state is actually on disk (write-ahead: never ack what a crash can
    still lose).  With the default [fsync_latency = 0.0] every write is
    durable synchronously and the returned instant equals [now] — the
    classic kind stable-storage model, bit-identical to acking inline.

    {!crash} models the disk at the instant of a process crash: every
    write still inside its fsync window is lost, and — when the
    [torn_tail] fault is enabled and at least one write was in flight —
    the last {e surviving} log record is torn off too (a partially
    flushed tail block).  {!replay} then returns exactly the durable
    prefix, which is what an {e amnesiac} recovery (see
    {!Engine.handlers.on_recover}) has to rebuild from.

    Instruments (in the [Obs.t] given at creation):
    [durable.appends], [durable.cell_writes{cell=..}],
    [durable.lost_writes{kind=tail|torn|cell}],
    [durable.replayed_entries]. *)

type config = { fsync_latency : float; torn_tail : bool }

val config : ?fsync_latency:float -> ?torn_tail:bool -> unit -> config
(** Defaults: [fsync_latency = 0.0] (synchronous durability),
    [torn_tail = false].  Raises [Invalid_argument] on a negative
    latency. *)

val instant : config
(** [config ()] — zero-latency, no torn tails. *)

type 'e t
(** One durable store per protocol instance, holding an append-only
    log of ['e] entries (and any number of cells) for each of the
    [nodes] processes. *)

val create : obs:Obs.t -> nodes:int -> config -> 'e t
val nodes : 'e t -> int
val fsync_latency : 'e t -> float

(** {1 Append-only log} *)

val append : 'e t -> node:int -> now:float -> 'e -> float
(** Append an entry to [node]'s log; returns the absolute time at
    which it is durable ([now + fsync_latency]). *)

val append_batch : 'e t -> node:int -> now:float -> 'e list -> float
(** Append [k] entries as {e one} flush group: they share a single
    fsync window and become durable together at the returned instant
    ([now + fsync_latency]; [now] itself for the empty batch, which
    appends nothing).  Crash damage is all-or-nothing per group — an
    in-flight batch is dropped whole, and a torn tail destroys the
    whole newest surviving group, never part of one.  This is the
    amortization behind {!Replicated_store}'s [Batch_req]: k writes,
    one fsync, one ack. *)

val log_length : 'e t -> node:int -> int
(** Entries currently in the log, durable or still inside their fsync
    window. *)

val replay : 'e t -> node:int -> now:float -> 'e list
(** The durable log prefix in append order (entries whose fsync
    completed by [now]).  Counted in [durable.replayed_entries]. *)

val crash : 'e t -> node:int -> now:float -> unit
(** Apply crash semantics to [node]'s disk at time [now]: drop every
    log record and cell write still inside its fsync window, and tear
    off the last surviving flush group (a single {!append}'s record,
    or a whole {!append_batch}) when [torn_tail] is set and a record
    was in flight. *)

(** {1 Typed cells} *)

type 'a cell
(** A named single-value register per node, living in the parent
    store (its writes obey the same fsync window and crash rules; torn
    tails apply only to the log). *)

val cell : 'e t -> name:string -> 'a cell

val set : 'a cell -> node:int -> now:float -> 'a -> float
(** Write [node]'s value; returns the time at which it is durable. *)

val get : 'a cell -> node:int -> 'a option
(** The in-memory view: the newest write, durable or not. *)

val durable_value : 'a cell -> node:int -> now:float -> 'a option
(** The newest write whose fsync completed by [now] — what an
    amnesiac recovery at [now] finds on disk. *)

(** {1 Write-ahead replies} *)

val send_when_durable :
  'msg Engine.t ->
  node:int ->
  durable_at:float ->
  span:string ->
  (unit -> unit) ->
  unit
(** [send_when_durable engine ~node ~durable_at ~span send] runs [send]
    at [durable_at] — the instant {!append}, {!append_batch} or {!set}
    returned — provided [node] is live then and has not crashed in
    between (see {!Engine.crashes}): a reply never acknowledges a write
    that a crash could still have lost, even once the node has
    recovered.  The wait is an {!Obs.Span} named [span], opened as a
    child of the ambient span context (none without one) and closed
    [Ok] when [send] runs, [Error "crash"] otherwise.  [send] runs
    under the ambient context of the call.

    Callers send inline when [durable_at <= now] and call this only
    for a write still inside its fsync window, so the synchronous path
    allocates no closure. *)
