(** Store throughput measurement: sessioned, pipelined, batched
    clients driving {!Replicated_store} under a {!Chaos} scenario,
    closed- or open-loop.

    The point of the exercise is the flat-vs-hierarchical capacity
    story.  With a non-zero {!Replicated_store.service} cost, every
    node serves at most [1 / per_req] requests per time unit; a flat
    majority puts ~n/2 nodes in {e every} quorum, so aggregate
    capacity stays flat as n grows, while an h-triang quorum touches
    only ~sqrt(2n) nodes and a sharded layout splits disjoint keys
    onto disjoint subquorums — capacity grows with n.  The closed-loop
    sweep in [bench throughput] shows the crossover; the open-loop
    mode shows queue growth and shedding once the offered rate exceeds
    capacity.

    Every run is deterministic in [seed]: repeated runs produce
    bit-identical reports. *)

(** {2 Arms} *)

type arm = {
  arm_label : string;
  read_sys : Quorum.System.t;
  write_sys : Quorum.System.t;
  router : Shard_router.t option;
}
(** One competitor in a sweep: the systems handed to the store, plus
    the optional shard router that overrides per-key selection. *)

val flat_arm : n:int -> arm
(** Tie-broken majority over all n — the flat baseline. *)

val htriang_arm : n:int -> arm
(** The largest standard h-triang fitting n (spares idle), embedded
    over the n-process universe. *)

val sharded_arm : ?shards:int -> n:int -> unit -> (arm, string) result
(** [shards] (default [max 1 (n / 4)]) h-grid subquorums over
    contiguous blocks via {!Shard_router}. *)

val arms : ?shards:int -> n:int -> unit -> (arm list, string) result
(** [[flat; h-triang; sharded h-grid]] for one n. *)

(** {2 Running} *)

type mode =
  | Closed  (** every session keeps [window] ops in flight *)
  | Open of float  (** Poisson arrivals at the given rate, regardless
                       of service capacity *)

val mode_label : mode -> string

type report = {
  label : string;  (** scenario label *)
  system : string;
  seed : int;
  mode : string;
  offered : float;  (** open-loop arrival rate; 0 for closed loop *)
  n : int;
  shards : int;  (** 1 when unsharded *)
  sessions : int;
  window : int;
  batch : int;
  issued : int;
  completed : int;
  failed : int;  (** timeouts + unavailable *)
  shed : int;  (** submissions dropped by full session backlogs *)
  ops_per_sec : float;  (** completed / horizon — the headline number *)
  mean_latency : float;
  p95_latency : float;
  peak_backlog : int;  (** worst per-session backlog ever observed *)
  final_backlog : int;  (** ops still queued when the run ended *)
  batches : int;
  batched_ops : int;
  retransmissions : int;
  stale_reads : int;  (** must be 0 *)
  breakdown : Obs.Trace_analysis.breakdown;
      (** critical-path component sums across completed ops; all-zero
          unless [?obs] was passed *)
  budget_hit : bool;
}

val run_h :
  ?seed:int ->
  ?mode:mode ->
  ?window:int ->
  ?batch_size:int ->
  ?batch_delay:float ->
  ?max_queue:int ->
  ?read_fraction:float ->
  ?router:Shard_router.t ->
  ?obs:Obs.t ->
  read_system:Quorum.System.t ->
  write_system:Quorum.System.t ->
  name:string ->
  Chaos.scenario ->
  report * Replicated_store.t
(** One store, one session per node ([window] in-flight ops each,
    batches of [batch_size] flushed after [batch_delay]), the
    scenario's faults applied, load driven to the scenario horizon
    and drained.  Defaults: seed 7, closed loop, window 4, batch 4,
    delay 0.25, [max_queue] 64, 50/50 read mix.  Fixed: keys [2n],
    the service cost per_req 0.3, per_batch 0.1, durability from the
    scenario plan.  The performance ledger ([bench/e2e]) calls
    [run_h] by name and may not change, so its name and labels stay;
    {!Experiment} pins the bench's window, batch and delay. *)

val run_arm :
  ?seed:int -> ?mode:mode -> ?window:int -> ?max_queue:int -> arm ->
  Chaos.scenario -> report
(** {!run_h} with systems and router taken from the arm and the default
    batching and read mix, without the store handle. *)

(** {2 Rendering} *)

val header : unit -> string
val row : report -> string
