(** Offline analysis over a recorded run: causal-tree reconstruction,
    per-operation critical paths with latency breakdowns, and a
    consistency auditor over recorded operation histories.

    The analyzer consumes the {!Trace} ring and the {!Span} collector
    of one {!Obs.t}.  Spans group trace events into operations (every
    event carries the span context it happened under, and every span
    knows its tree's root), message ids stitch cross-node causality
    (Send → Deliver), and the two together let the analyzer walk the
    {e critical path} of each operation backward from its completion:
    the last message delivered on a node explains how control got
    there, its send→deliver interval is a network edge, and the gaps
    between hops are local time — split into fsync (overlap with the
    op's fsync spans), retransmit (a retransmission timer fired in the
    gap) and queueing (the rest).  The walk partitions the operation's
    [start, end] interval, so breakdown components sum to the
    end-to-end latency {e exactly}; analysis never perturbs the run
    (it happens after the fact, on recorded data). *)

(** {2 Critical paths and latency breakdowns} *)

type breakdown = {
  network : float;  (** time in flight between nodes *)
  fsync : float;  (** waiting on modeled durable writes *)
  queueing : float;  (** local residue: handler/queue/think time *)
  retransmit : float;  (** waiting out retransmission timers *)
}

val zero_breakdown : breakdown
val breakdown_total : breakdown -> float
val breakdown_add : breakdown -> breakdown -> breakdown

type op_profile = {
  root : Span.span;  (** the operation's root span (finished) *)
  events : Trace.event list;  (** the op's events, chronological *)
  latency : float;  (** root end - start *)
  breakdown : breakdown;  (** partitions [latency] exactly *)
  complete : bool;
      (** false when ring eviction broke the causal chain; the
          unexplained remainder is attributed to queueing *)
}

val profile_ops : trace:Trace.t -> spans:Span.t -> unit -> op_profile list
(** One profile per {e finished} root span (open roots — operations
    still running when the run stopped — are skipped).  Fsync time is
    that of spans whose name contains ["fsync"]. *)

val events_of_op : trace:Trace.t -> spans:Span.t -> int -> Trace.event list
(** All surviving trace events of the operation rooted at the given
    span id, chronological — the op's causal tree as evidence. *)

val percentile : float list -> float -> float option
(** Nearest-rank percentile (same convention as {!Metrics}); [None] on
    an empty list. *)

type aggregate = {
  count : int;
  complete : int;  (** profiles with an unbroken causal chain *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_v : float;
  total : breakdown;  (** component sums across all ops *)
}

val aggregate : op_profile list -> aggregate

val by_name : op_profile list -> (string * op_profile list) list
(** Group profiles by root-span name (e.g. ["store.read"] vs
    ["store.write"]), first-seen order. *)

(** {2 Span windows}

    Merged wall-clock windows covered by all finished spans of a given
    name.  The motivating consumer is reconfiguration downtime: every
    epoch switch opens a ["reconfig.switch"] span, so the merged
    windows are the intervals during which some switch was in flight
    (service degraded to NACK-and-retry), and their total is the run's
    reconfiguration downtime. *)

val span_windows :
  spans:Span.t -> name:string -> (float * float) list
(** Merged, non-overlapping [(start, end)] intervals of all {e finished}
    spans named [name], in time order; open spans are ignored. *)

val span_window_total : spans:Span.t -> name:string -> float
(** Total time covered by {!span_windows} (overlaps counted once). *)

(** {2 History auditor}

    Protocols record one {!hop} per completed client operation; the
    auditor replays the history and checks session guarantees, each
    one rule: a read must observe at least the highest version among
    the hops of a set that finished strictly before it started
    ([finished < started]).  Overlapping pairs are never flagged, so
    the auditor cannot false-positive on a linearizable history; and
    simulated instants do not order events, so a write finishing at
    the instant a read starts is concurrent with it.  Each set is
    sorted by finish time with a running maximum version, so a read
    costs one binary search: O(n log n) for n hops. *)

type hop = {
  client : int;  (** issuing client/node *)
  key : int;
  is_write : bool;
  version : int;  (** version written, or version observed by a read *)
  started : float;
  finished : float;
  span : int;  (** the op's root span id; -1 when unknown *)
}

type violation = {
  check : string;
      (** ["stale-read"], ["read-your-writes"] or ["monotonic-reads"] *)
  detail : string;  (** human-readable explanation with times/versions *)
  offending : hop;  (** the read that observed too little *)
  expected : hop option;  (** the operation it should have observed *)
  witness : Trace.event list;
      (** surviving trace events of the operations involved — the
          causal evidence chain (empty when trace/spans not given) *)
}

type audit = { reads : int; writes : int; violations : violation list }

val stale_reads : hop list -> int
(** How many {e stale-read} violations {!audit_history} reports,
    without building them; the list's order does not matter. *)

val audit_history : ?trace:Trace.t -> ?spans:Span.t -> hop list -> audit
(** Checks every read against three guarantees, whose sets are every
    write to its key ({e stale-read}), the reader's own writes to it
    ({e read-your-writes}) and the reader's own reads of it
    ({e monotonic-reads}).  Violations come in the reads' start order,
    stale-read before read-your-writes, then every monotonic-reads
    one; [expected] is the earliest-started of the highest-version
    hops.  Pass [trace]/[spans] to attach witnessing event chains to
    violations. *)

val passed : audit -> bool
val verdict : audit -> string
(** ["pass"] or ["FAIL (n violations)"]. *)
