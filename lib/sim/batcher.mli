(** Generic per-destination batching for rpc payloads.

    Items {!add}ed toward a destination are buffered and handed to the
    flush callback as one ordered list when the buffer reaches
    [max_size], or [max_delay] after the buffer's first item — with
    [max_delay = 0.0] the flush still goes through the event queue, so
    everything enqueued within one handler turn coalesces into one
    batch at the same simulated instant.

    The module is engine-agnostic: callers supply a [schedule] closure
    (normally [Sim.Engine.schedule] at [now + delay]).  Its flush
    timers are plain scheduled thunks, which cannot be cancelled: a
    per-buffer generation counter turns the thunk of a buffer that was
    already flushed by size into a no-op. *)

type 'a t

val create :
  ?max_size:int ->
  ?max_delay:float ->
  nodes:int ->
  schedule:(delay:float -> (unit -> unit) -> unit) ->
  flush:(dst:int -> 'a list -> unit) ->
  unit ->
  'a t
(** Defaults: [max_size = 8], [max_delay = 0.0].  Raises
    [Invalid_argument] when [max_size < 1], [max_delay < 0] or
    [nodes <= 0]. *)

val add : 'a t -> dst:int -> 'a -> unit
(** Buffer one item; may flush synchronously when the size bound is
    hit. *)

val flush_dst : 'a t -> dst:int -> unit
(** Flush one destination's buffer now (no-op when empty). *)

val flush_all : 'a t -> unit
(** Flush every non-empty buffer now — e.g. on session drain. *)

val pending : 'a t -> int
(** Items currently buffered across all destinations. *)

val batches : 'a t -> int
(** Flushes performed so far. *)

val batched : 'a t -> int
(** Items delivered through flushes so far. *)
