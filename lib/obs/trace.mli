(** Ring-buffered structured event trace with message-causality links.

    Every event carries a simulated timestamp, the node it happened on,
    a peer node, a message id, a span id (see {!Span}) and a free-form
    label; the last four are [-1] or [""] when they do not apply.
    Message ids are the causality links: the event stream of a healthy
    run contains, for every [Deliver] of message [m], an earlier [Send]
    of [m] — send → deliver → (the ack's own send → deliver) chains are
    reconstructible from the ids alone.  Span ids tie message events to the operation whose
    causal context they were emitted under, which is what
    {!Trace_analysis} uses to rebuild per-operation critical paths.

    The buffer is a fixed-capacity columnar ring — one preallocated
    array per field, written in place — so recording never allocates
    and never slows down a long run; {!event} records are built only
    when read ({!iter}, {!to_list}).  Once full, the oldest events are
    overwritten ({!dropped} counts them, and [on_drop] fires once per
    overwritten event so an owner can meter the loss).  A capacity of
    [0] disables recording entirely
    ({!record} becomes a no-op), which is how metrics-only runs avoid
    trace overhead. *)

type kind =
  | Send  (** a message left [node] for [peer] *)
  | Deliver  (** a message from [peer] was handed to [node] *)
  | Drop  (** the network or a dead destination ate the message *)
  | Crash
  | Recover
  | Note  (** protocol-level event; see [label] *)

type event = {
  seq : int;  (** global record index, monotone from 0 *)
  time : float;
  kind : kind;
  node : int;
  peer : int;  (** -1 when there is no other endpoint *)
  msg_id : int;  (** causality link; -1 when not a message event *)
  span : int;  (** {!Span} context the event happened under; -1 if none *)
  label : string;  (** detail, e.g. ["mutex.enter_cs"]; may be empty *)
}

type t

val create :
  ?capacity:int -> ?on_drop:(unit -> unit) -> ?prof:Prof.t -> unit -> t
(** [capacity] (default 8192) is the ring size in events; [0] disables
    recording.  [on_drop] (default a no-op) is invoked once for every
    event that overwrites an older one.  [prof] (default {!Prof.null})
    receives an [obs.trace] probe around every recorded event. *)

val capacity : t -> int

val record :
  t ->
  time:float ->
  node:int ->
  peer:int ->
  msg_id:int ->
  span:int ->
  label:string ->
  kind ->
  unit
(** Append one event.  Every field is required — [-1] for a missing
    peer, message id or span, [""] for no label — so a call passes its
    arguments as they are and allocates nothing. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val dropped : t -> int
(** Events lost to ring overwrites. *)

val length : t -> int
(** Events currently held. *)

val iter : t -> (event -> unit) -> unit
(** Oldest to newest. *)

val to_list : t -> event list
val clear : t -> unit
val kind_name : kind -> string

val causality_violations : t -> event list
(** The [Deliver] events whose [msg_id] has no earlier [Send] in the
    buffer.  Delivers whose matching send may have been evicted by ring
    wrap-around (their id precedes the oldest buffered send — message
    ids are assigned monotonically) are not reported; on a buffer with
    [dropped = 0] the check is exact.  An empty list is the pass
    verdict: every delivery is causally explained. *)
