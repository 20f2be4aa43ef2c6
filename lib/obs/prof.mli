(** Self-profiling for the simulator itself: where does an event's wall
    time and allocation go?

    Unlike {!Metrics}/{!Trace}/{!Span} — which measure the {e simulated}
    system — a [Prof.t] measures the {e simulator}: real wall-clock time
    ([Unix.gettimeofday]) and real minor-heap allocation
    ([Gc.minor_words]) attributed to a small fixed set of subsystem
    categories.  Probes are scoped and may nest; every probe boundary
    charges the elapsed interval to the {e enclosing} category, so each
    category accumulates exclusive (self) time and the per-category
    shares of a {!report} sum to exactly the probed total.

    The accumulators are flat [float array]s indexed by category and the
    last probe edge's clock and word count sit in an unboxed
    [Float.Array.t], so a probe edge allocates nothing: a category's
    words are exactly what its code allocated.  A disabled profiler
    costs one load and branch per probe edge.

    Profiling is {e behaviorally inert}: it reads clocks and counters
    but never touches simulation state or RNG streams, so pinned-seed
    runs are bit-identical with profiling on or off.

    Not domain-safe: probes must come from the domain that owns the
    profiler (worker domains of {!Exec.Pool} are charged batch-level by
    the submitting domain instead). *)

type category =
  | Loop  (** engine run loop bookkeeping: peeks, budget, drain checks *)
  | Heap  (** event-queue pushes and pops *)
  | Dispatch_msg  (** [on_message] handler bodies *)
  | Dispatch_timer  (** [on_timer] handler bodies *)
  | Dispatch_recovery  (** [on_crash] / [on_recover] handler bodies *)
  | Thunk  (** scheduled thunks (workload injection) *)
  | Rpc  (** reliable-rpc bookkeeping: acks, retransmit arming *)
  | Durable  (** durable-log appends, replay, crash truncation *)
  | Trace  (** trace-ring writes *)
  | Metrics  (** metric cell updates *)
  | Span  (** span open/close and sampling decisions *)
  | Exec  (** parallel pool batches (submitting domain) *)
  | Other

val index : category -> int
(** Dense index in [0, n_categories). *)

val n_categories : int

val name : category -> string
(** Stable dotted label, e.g. ["engine.dispatch.message"]. *)

val all : category list
(** Every category, in index order. *)

type t

val create : ?enabled:bool -> unit -> t
(** A fresh profiler (default disabled — all probes are no-ops). *)

val null : t
(** A shared, permanently disabled instance, for subsystems whose owner
    supplied no profiler.  Never enable it. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Toggling abandons any currently open probes (their interval since
    the last boundary is discarded) and re-arms the clock baseline. *)

val clear : t -> unit
(** Zero all accumulators (enabled state is kept). *)

(** {2 Probes} *)

val enter : t -> category -> unit
val leave : t -> category -> unit
(** Manual probe pair for hot paths (no closure).  Calls must nest like
    parentheses; a mismatched or extra [leave] is counted (see
    {!report}) rather than raised, so a probe bug can never take down a
    run. *)

val probe : t -> category -> (unit -> 'a) -> 'a
(** [probe t cat f] runs [f] inside an [enter]/[leave] pair, leaving on
    exceptions too. *)

(** {2 Reports} *)

type row = {
  category : category;
  label : string;  (** {!name} of the category *)
  probes : int;  (** times entered *)
  seconds : float;  (** exclusive wall time *)
  time_share : float;  (** fraction of {!report.total_seconds}, 0..1 *)
  minor_words : float;  (** exclusive minor-heap words *)
  alloc_share : float;  (** fraction of {!report.total_minor_words} *)
}

type report = {
  rows : row list;  (** probed categories, sorted by [seconds] desc *)
  total_seconds : float;  (** sum over all categories *)
  total_minor_words : float;
  truncated : int;  (** probes nested deeper than the fixed stack *)
  unbalanced : int;  (** leave-without-enter or category mismatches *)
}

val report : t -> report
(** Shares are computed against the category totals, so they sum to 1
    (up to float rounding) whenever anything was probed. *)

val render : t -> string
(** Aligned plain-text table. *)

val render_markdown : t -> string
(** The same table as GitHub-flavored markdown (for {!Run_report}). *)
