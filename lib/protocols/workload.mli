(** Client workload generators for the simulated protocols. *)

val poisson_ops :
  'msg Sim.Engine.t ->
  rng:Quorum.Rng.t ->
  rate:float ->
  horizon:float ->
  (client:int -> unit) ->
  int
(** Schedule operations as a Poisson process of [rate] ops per time
    unit over [\[0, horizon)]; each op is issued by a uniformly random
    client node.  Returns the number of scheduled ops. *)

val open_loop :
  'msg Sim.Engine.t ->
  rng:Quorum.Rng.t ->
  rate:float ->
  horizon:float ->
  (unit -> unit) ->
  int
(** Open-loop offered load: schedule [issue] at Poisson arrivals of
    [rate] per time unit over [\[0, horizon)], regardless of how the
    service keeps up — arrivals beyond capacity pile into whatever
    queue the callee maintains.  Unlike {!poisson_ops} the callee
    draws its own station/key (at event time, keeping the RNG in
    event order).  Returns the number of arrivals. *)

val closed_loop :
  'msg Sim.Engine.t ->
  stations:int ->
  per_station:int ->
  horizon:float ->
  (station:int -> complete:(ok:bool -> unit) -> unit) ->
  unit
(** Closed-loop load: each of [stations] keeps [per_station]
    operations permanently in flight until [horizon] — [issue] must
    start one operation and call [complete] exactly once when it
    finishes.  [~ok:true] immediately issues the successor;
    [~ok:false] backs off by one time unit first, so a
    persistent outage cannot spin the simulation at one instant.
    This measures {e capacity}: completions per time unit at full
    pipeline occupancy.  Raises [Invalid_argument] on non-positive
    parameters. *)

val staggered_requests :
  'msg Sim.Engine.t ->
  every:float ->
  count:int ->
  (client:int -> unit) ->
  unit
(** [count] operations at fixed spacing [every], clients round-robin —
    a deterministic contention pattern for mutual-exclusion demos. *)

val read_write_mix :
  'msg Sim.Engine.t ->
  rng:Quorum.Rng.t ->
  rate:float ->
  horizon:float ->
  read_fraction:float ->
  keys:int ->
  read:(client:int -> key:int -> unit) ->
  write:(client:int -> key:int -> value:int -> unit) ->
  int
(** Poisson arrivals of reads/writes over [keys] keys: each arrival
    draws a uniformly random client, a key, and whether it reads (with
    probability [read_fraction]); writes carry distinct increasing
    values.  Returns the number of scheduled ops.  Raises
    [Invalid_argument] when [read_fraction] is outside [\[0, 1\]] or
    [keys <= 0]. *)
