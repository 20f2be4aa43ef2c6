(** Network model: per-message latency, loss, partitions, and gray
    failures.

    Deterministic given the engine's RNG.  Partitions are symmetric
    cuts of the node set: a message crosses only if its endpoints are
    on the same side of every active cut.  Cuts are identified by
    handles so overlapping partitions can be healed independently.

    Loss composes from three independent sources — the base iid rate,
    a transient {e burst} rate ({!set_extra_loss}), and per-directed-link
    rates ({!set_link_loss}).  {e Gray failures} are modelled as
    per-node latency inflation ({!set_slowdown}): the node is up but
    everything through it is slow, which is exactly what makes a
    heartbeat failure detector suspect it. *)

type t

val create :
  ?base_latency:float ->
  ?jitter:float ->
  ?loss:float ->
  ?latency_of:(int -> int -> float) ->
  unit ->
  t
(** [base_latency] (default 1.0 time units) plus an exponential jitter
    of mean [jitter] (default 0.2); [loss] (default 0) is an iid drop
    probability.  [latency_of src dst] (default [fun _ _ -> 0.]) adds a
    deterministic per-pair propagation term — see {!Topology}. *)

type cut
(** Handle for one installed partition. *)

val partition : t -> group_a:int list -> cut
(** Install a cut isolating [group_a] from everyone else.  Multiple
    cuts compose; the returned handle heals this cut specifically. *)

val heal : t -> cut -> unit
(** Remove one cut (no-op if already healed). *)

val heal_all : t -> unit
(** Remove every active cut. *)

val partitioned : t -> bool
(** Whether any cut is currently active. *)

val set_extra_loss : t -> float -> unit
(** Transient loss added on top of the base rate — set at burst start,
    reset to [0.] at burst end (see {!Failure_injector.loss_burst}). *)

val extra_loss : t -> float

val set_link_loss : t -> src:int -> dst:int -> float -> unit
(** Extra drop probability for the directed link [src -> dst]
    ([0.] clears it, [1.] severs the link). *)

val link_loss : t -> src:int -> dst:int -> float

val set_slowdown : t -> node:int -> float -> unit
(** Gray failure: add [extra] latency to every message into or out of
    [node] ([0.] clears it). *)

val slowdown : t -> node:int -> float

val draw : t -> Quorum.Rng.t -> src:int -> dst:int -> Float.Array.t -> bool
(** [draw t rng ~src ~dst latency] decides one message's fate: [false]
    when a cut separates [src] and [dst] or the message is lost;
    otherwise [true], with its latency written to [latency.(0)].  It
    allocates nothing and returns no float, so callers in other modules
    pay no boxing (see {!Quorum.Rng}).

    The draws are fixed: every send that has ever used the network
    makes them, in this order, so pinned-seed runs replay exactly.
    - The cut check draws nothing.
    - The survival probability is the product
      [(1 - loss) * (1 - extra_loss) * (1 - link_loss src dst)], in
      that order; only when it is below 1 does one uniform [u] decide
      the loss, [u < 1 - keep].
    - Only when [jitter > 0] does a second uniform [u] give the jitter
      [-jitter * log (1 - u)] ({!Quorum.Rng.exponential}).
    - The latency is [base_latency + latency_of src dst + jitter +
      slowdown src + slowdown dst], summed left to right. *)
