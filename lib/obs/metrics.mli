(** Typed metrics registry: counters, gauges and histograms, each
    optionally split by labels.

    A {e family} is registered once under a dotted name
    (e.g. ["rpc.retransmits"]) and returns a typed handle; updates may
    carry labels (e.g. [[("node", "3")]]) and land in a per-label-value
    {e cell} of the family, so ["rpc.retransmits{node=3}"] and
    ["rpc.retransmits{node=5}"] accumulate independently.  Label lists
    are canonicalized by key, so label order never matters.

    Registration is idempotent: registering the same name twice returns
    the same family (so subsystems can register independently), but
    re-registering a name as a different metric kind raises
    [Invalid_argument] — the type of a metric is part of its contract.

    Reads are non-allocating on the registry: asking for a cell that
    was never written returns the zero value (0, 0.0, empty histogram)
    without creating it.

    Histograms keep exact samples, so {!percentile} is nearest-rank on
    the true sample set, not a bucket approximation.  All histogram
    accessors are empty-safe: {!mean} and {!sum} return [0.0] on an
    empty cell, {!percentile} returns [None], {!summary} renders
    ["n=0"] — nothing raises on "no data yet". *)

type t
(** A registry: a mutable collection of metric families. *)

type labels = (string * string) list
(** Label key/value pairs; order is irrelevant. *)

type counter
type gauge
type histogram

val create : ?prof:Prof.t -> unit -> t
(** [prof] (default {!Prof.null}) receives an [obs.metrics] probe around
    every update, so a profiled run can price its own metrics
    overhead. *)

val set_enabled : t -> bool -> unit
(** Registry-wide update switch.  When off, {!incr}/{!set}/{!set_max}/
    {!observe} return without touching (or creating) any cell —
    the zero-overhead "no sink" mode for hot benchmark runs.
    Registration and reads are unaffected.  Default: enabled. *)

(** {2 Registration} *)

val counter : t -> ?help:string -> string -> counter
(** Register (or look up) a monotone integer counter family. *)

val gauge : t -> ?help:string -> string -> gauge
(** Register (or look up) a last-value-wins float gauge family. *)

val histogram : t -> ?help:string -> ?max_samples:int -> string -> histogram
(** Register (or look up) an exact-sample histogram family.

    [max_samples] (default 0 = unbounded) caps per-cell memory with a
    reservoir sample (Algorithm R): {!count}, {!sum}, {!mean}, min and
    max stay exact regardless, and {!percentile} is exact until a cell
    has seen more than [max_samples] observations, an unbiased
    fixed-size sample after that.  The reservoir's random stream is
    seeded from the cell identity, so results are reproducible and the
    global [Random] state of a seeded simulation is never touched.
    Cells created before a re-registration supplied [max_samples] keep
    their original cap. *)

(** {2 Updates} *)

val incr : ?labels:labels -> ?by:int -> counter -> unit
(** Bump a counter cell by [by] (default 1; must be >= 0). *)

val set : ?labels:labels -> gauge -> float -> unit

val set_max : ?labels:labels -> gauge -> float -> unit
(** Monotone set: keep the larger of the current and given values —
    high-water marks (peak queue depth, deepest backlog).  A fresh
    cell starts at 0, so negative values never register. *)

val observe : ?labels:labels -> histogram -> float -> unit
(** Record one sample (e.g. a latency). *)

(** {2 Labeled-cell handles}

    A handle binds a family to one label set, once — when a protocol
    or a session is created — so a hot update skips what a labeled
    update does every time: sort the label list, hash it and compare it
    against the family's keys.  An update through a handle lands in
    exactly the cell the same labeled update would, with the same
    value.

    The cell is looked up (or created) on the handle's first update,
    not when the handle is made: a handle that is never updated, or
    only updated while the registry is disabled, adds no cell, so
    snapshots list exactly the cells the labeled calls would have
    made. *)

module Handle : sig
  type 'kind t
  (** A handle on one labeled cell of a ['kind] family. *)

  val counter : counter -> labels -> counter t
  val gauge : gauge -> labels -> gauge t
  val histogram : histogram -> labels -> histogram t

  val incr : ?by:int -> counter t -> unit
  (** [incr ~by h] is [Metrics.incr ~labels ~by f] for [h]'s family [f]
      and labels. *)

  val set : gauge t -> float -> unit
  val set_max : gauge t -> float -> unit
  val observe : histogram t -> float -> unit
end

(** {2 Reads} *)

val counter_value : ?labels:labels -> counter -> int
val gauge_value : ?labels:labels -> gauge -> float

val count : ?labels:labels -> histogram -> int
(** Observations ever recorded (exact even with [max_samples]). *)

val sample_count : ?labels:labels -> histogram -> int
(** Samples currently held; [< count] once a reservoir cap kicked in. *)

val sum : ?labels:labels -> histogram -> float

val mean : ?labels:labels -> histogram -> float
(** [0.0] when the cell is empty. *)

val percentile : ?labels:labels -> histogram -> float -> float option
(** [percentile h 0.99] — nearest-rank on the recorded samples; [None]
    when the cell is empty.  Raises [Invalid_argument] when the
    quantile is outside [0, 1]. *)

val percentile_or :
  ?labels:labels -> default:float -> histogram -> float -> float
(** {!percentile} with an explicit value for the empty case. *)

val summary : ?labels:labels -> histogram -> string
(** One-line ["n=.. mean=.. p50=.. p99=.. max=.."] rendering;
    ["n=0"] when empty. *)

(** {2 Snapshots} *)

type hist_stats = {
  n : int;
  total : float;
  avg : float;  (** 0.0 when empty *)
  min_v : float;  (** 0.0 when empty *)
  max_v : float;  (** 0.0 when empty *)
  p50 : float;
  p90 : float;
  p99 : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_stats

type sample = {
  name : string;
  labels : labels;  (** canonicalized (sorted by key) *)
  help : string;
  value : value;
}

val snapshot : t -> sample list
(** Every cell of every family, sorted by [(name, labels)] — the order
    is deterministic, so snapshot dumps diff cleanly across runs. *)

val render : t -> string
(** Aligned human-readable table of the whole registry, one line per
    cell.  Families registered but never written still get a line
    (["(no data)"]), so a dump shows which instruments exist. *)

(** {2 Snapshot diffing} *)

val diff : before:sample list -> after:sample list -> sample list
(** What changed between two snapshots of the {e same} registry, cell
    by cell: counters and gauges report [after - before], histograms
    report the delta [n]/[total]/[avg] with the distribution shape
    (min/max/percentiles) taken from [after] — shapes are not
    decomposable.  Unchanged cells are omitted; cells new in [after]
    appear as-is (zero-valued new cells are still omitted). *)

val render_diff : before:sample list -> after:sample list -> string
(** {!diff} rendered like {!render}; ["(no change)"] when empty. *)
