(** Ack-based reliable delivery on top of {!Engine} / {!Network}.

    [Engine.send] is fire-and-forget: messages die to loss, bursts and
    partitions.  [Rpc.send] gives at-most-once delivery with bounded
    retransmission: each payload gets a sequence number, the receiver
    acks and suppresses duplicates, and the sender retransmits on a
    timeout with capped {e decorrelated-jitter} backoff until acked or
    [max_attempts] transmissions have been spent — at which point the
    message is {e dead-lettered} and the (optional) dead-letter handler
    fires, letting the protocol treat the peer as unreachable and
    degrade gracefully (e.g. pick a different quorum).

    The module is polymorphic in the protocol payload ['a]; the engine
    it is built on carries ['a msg] envelopes.  Timer tags [<= -2] are
    reserved for rpc retransmissions ([-1] belongs to
    {!Failure_detector}; protocol tags must be [>= 0]): route
    [on_timer] through {!on_timer} first and fall through to protocol
    timers only when it returns [false].

    Crash semantics: a crashed sender forgets its unacked sends (call
    {!on_crash} from the engine's crash handler); receiver-side dedup
    state survives crashes, modelling sequence numbers on stable
    storage — so a message is never handed to [deliver] twice, even
    across crash/recovery cycles.

    An unacked send holds one slot of a pool that grows to the peak
    number of unacked sends and reuses freed slots.  An ack, and
    {!on_crash} for every send of the crashed node, cancels the send's
    retransmit timer ({!Engine.cancel}), so no stale timer stays
    queued. *)

type 'a msg =
  | Data of { seq : int; slot : int; payload : 'a }
      (** [seq] numbers the send (dedup); [slot] is its sender-side pool
          slot.  A retransmission resends the same envelope. *)
  | Ack of { seq : int; slot : int }
      (** echoes both: the sender finds the slot in O(1) and frees it
          only if it still holds send [seq] *)

type 'a t

val create :
  'a msg Engine.t -> ?timeout:float -> ?max_attempts:int -> unit -> 'a t
(** The rpc layer of [engine]: its sends, timers and RNG draws go
    through it, and its counters land in the engine's metrics.
    [timeout] (default 2.0) is the initial retransmission timeout; the
    first retransmission waits [timeout * (1 + 0.3 u)] for a uniform
    draw [u].  Later delays use decorrelated jitter: each is drawn
    uniformly from [\[timeout, 3 * previous\]] and clamped to
    [32 * timeout], so retrying senders de-synchronize instead of
    producing lockstep retransmit storms.  All draws come from the
    engine's seeded RNG — fixed-seed runs stay deterministic.
    [max_attempts] (default 6) counts total transmissions including the
    first. *)

val next_backoff : 'a t -> Quorum.Rng.t -> prev:float -> float
(** The backoff schedule, exposed for property tests: the delay that
    follows a retry whose delay was [prev] — a decorrelated-jitter draw
    in [\[timeout, min (32 * timeout) (3 * prev)\]]. *)

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Reliable send; retransmits until acked, dead-letters after
    [max_attempts]. *)

val on_message :
  'a t ->
  node:int ->
  src:int ->
  'a msg ->
  deliver:(src:int -> 'a -> unit) ->
  unit
(** Feed a received rpc envelope in; [deliver] is invoked exactly once
    per distinct payload (duplicates are suppressed and re-acked). *)

val on_timer : 'a t -> node:int -> tag:int -> bool
(** Handle a retransmission timer.  Returns [false] when [tag] is not
    an rpc tag (the protocol should then handle it itself). *)

val on_crash : 'a t -> node:int -> unit
(** Drop the crashed node's unacked sends (volatile sender state) and
    cancel their retransmit timers. *)

val set_dead_letter_handler :
  'a t -> (src:int -> dst:int -> 'a -> unit) -> unit

val retransmissions : 'a t -> int
val duplicates_suppressed : 'a t -> int
val dead_letters : 'a t -> int
val inflight_count : 'a t -> int
(** Unacked sends: those not yet acked, dead-lettered or dropped by a
    crash of their sender. *)
