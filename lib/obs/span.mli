(** Operation-scoped spans: the unit of causal accounting.

    A span covers one logical operation (a client write, one quorum
    attempt, one replica fsync) on one node, from a start sim-time to
    an end sim-time, with an outcome status.  Spans form trees: every
    span either is a root (a whole client operation) or names a parent
    that was started earlier, and carries the id of its tree's root so
    a flat span dump groups by operation without walking pointers.

    Span ids double as the {e trace context} that {!Sim.Engine} and
    {!Sim.Rpc} propagate through messages: trace events recorded while
    a span's context is ambient carry its id in {!Trace.event.span},
    which is how {!Trace_analysis} stitches ring-trace events back to
    the operation that caused them — including events on {e other}
    nodes, reached only through message delivery.

    The collector is append-only and ids are dense (0, 1, 2, ...), so
    [get] is O(1) and a span's parent always has a smaller id. *)

type status =
  | Open  (** still running; [end_time] is [nan] *)
  | Ok
  | Error of string  (** failed; the payload says why (may be [""]) *)

val status_name : status -> string
(** ["open"], ["ok"], ["error"] or ["error:<reason>"]. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  root : int;  (** id of this tree's root; equals [id] for roots *)
  node : int;  (** node the spanned work ran on *)
  name : string;  (** e.g. ["store.write"], ["rpc.attempt"], ["fsync"] *)
  start_time : float;
  end_time : float;  (** [nan] while open *)
  status : status;
}
(** A snapshot: {!get} and {!iter} build it from the collector's
    columns, so a later {!finish} does not change it. *)

type t
(** A span collector; one per run, owned by {!Obs.t}. *)

val create : ?prof:Prof.t -> unit -> t
(** [prof] (default {!Prof.null}) receives an [obs.span] probe around
    every start/finish, so a profiled run prices its span overhead. *)

(** {2 Sampling}

    High-volume runs can keep 1 in [k] operation trees instead of all
    of them.  The decision is made once per {e root} span, keyed only
    on a private seed and the root's ordinal (splitmix64) — never on
    the simulation's RNG — and the whole tree follows it: starting a
    child under a sampled-out parent yields {!sampled_out} again, so
    descendants are kept or dropped together even across nodes (the
    sentinel propagates through {!Sim.Engine}'s ambient span context
    like any other id).  {!finish} on the sentinel is a no-op, so
    protocol code needs no sampling awareness. *)

val sampled_out : int
(** The sentinel pseudo-id (-2) returned for spans whose root was
    sampled out.  Distinct from -1 ("no span"): -1 still raises where
    it always did, and engine-context propagation forwards the
    sentinel where it would drop -1. *)

val set_sampler : t -> seed:int -> keep_1_in:int -> unit
(** Keep 1 in [keep_1_in] roots ([1] = keep everything, the default;
    [0] = drop everything).  Raises [Invalid_argument] when negative.
    Deterministic: same seed and same start order, same decisions. *)

val sampler_keep_1_in : t -> int

val roots_seen : t -> int
(** Root spans requested (kept + sampled out). *)

val roots_kept : t -> int

val start : t -> time:float -> node:int -> ?parent:int -> string -> int
(** Open a new span and return its id.  [parent] defaults to -1
    (a root span); raises [Invalid_argument] if [parent] names a span
    that does not exist.  With a sampler installed, a root may come
    back as {!sampled_out}; a [parent] of {!sampled_out} (or lower)
    always does. *)

val finish : t -> time:float -> ?status:status -> int -> unit
(** Close a span (default status {!Ok}).  Idempotent: closing an
    already-closed span is a no-op — the first verdict wins, so a
    watchdog abort and a late success cannot fight.  A {!sampled_out}
    id is a no-op.  Raises [Invalid_argument] on an unknown id, a
    status of [Open], or an end time before the span's start. *)

val get : t -> int -> span option
val get_exn : t -> int -> span

val count : t -> int
(** Spans ever started. *)

val open_count : t -> int
(** Spans not yet finished. *)

val is_open : span -> bool

val duration : span -> float
(** [end_time - start_time]; [nan] while open. *)

val iter : t -> (span -> unit) -> unit
(** In id (= start) order. *)

val to_list : t -> span list
val roots : t -> span list
val children : t -> int -> span list

val validate : t -> string list
(** Well-formedness report; [[]] is the pass verdict.  Checks that
    every non-root span has an existing parent started before it, that
    [root] fields agree along parent links, that children do not start
    before their parents, and that no closed span ends before it
    starts.  Child spans are allowed to {e end} after their parents:
    a replica's fsync legitimately outlives the client operation that
    caused it once a quorum has already answered. *)
