(** The one client-facing configuration record shared by every quorum
    protocol ({!Replicated_store}, {!Mutex}, {!Reconfig}): build one
    with {!default} and the [with_*] builders and hand it to the
    protocol's [of_config], its only constructor, together with the
    engine the protocol runs on.

    {[
      let cfg =
        Client_config.(
          default
          |> with_durability (Sim.Durable.config ~fsync_latency:0.5 ())
          |> with_timeout 10.0)
      in
      let engine = Sim.Engine.create ~seed:1 ~nodes:read_system.n () in
      let store =
        Replicated_store.of_config engine ~config:cfg ~read_system
          ~write_system ()
    ]}

    Not every field is meaningful to every protocol: only
    {!Replicated_store} reads [routing]; {!Mutex} reads [timeout] as
    its acquire timeout and ignores [retries] (requests queue at the
    arbiters instead of retrying); {!Reconfig} has no rpc layer of its
    own and uses [durability] and [timeout], plus [fd] when it runs a
    failure detector.  Each protocol's [.mli] states which fields it
    honours. *)

val rpc_timeout : float
(** The initial retransmit timeout (4.0) of the store's and the mutex's
    reliable-rpc layer; the rest of its schedule is {!Sim.Rpc.create}'s
    default, dead letters included (after 6 transmissions). *)

type fd = { period : float; timeout : float; accrual : float option }
(** Heartbeat failure detection: beat [period], suspicion [timeout].
    [accrual = Some phi] switches the detector to accrual mode with
    threshold [phi] (window 20, min 5 samples — see
    {!Sim.Failure_detector.mode}); [None] (the default) keeps the
    historical fixed-timeout detector. *)

type routing = {
  hedge : bool;
      (** hedge straggling quorum requests to a backup replica after
          the worst 0.9 quantile of the awaited members' recent reply
          latencies, never before 2.0 time units (the cold-start guard
          while samples accumulate); off by default — hedging changes
          the event schedule, so the default keeps runs bit-identical
          to the pre-hedging store *)
  degraded_reads : bool;
      (** when no unsuspected write quorum exists, refuse writes
          immediately (degraded read-only mode) instead of burning the
          attempt timeout; reads keep flowing.  Off by default. *)
}
(** The store's suspicion-aware routing: hedged requests and degraded
    read-only mode.  With both off the store is bit-identical to its
    pre-routing behaviour: no hedge timers are scheduled, no extra
    sends happen, and completion remains "every selected member
    acked". *)

type t = {
  fd : fd;
  routing : routing;  (** the store's hedging + degraded-mode knobs *)
  durability : Sim.Durable.config;  (** write-ahead fsync model *)
  timeout : float;  (** per-operation (or acquire) timeout *)
  retries : int;  (** quorum re-selection attempts after a timeout *)
}

val default : t
(** The values the protocols have always defaulted to: fd
    [{period = 1.0; timeout = 5.0; accrual = None}], routing all off
    ([{hedge = false; degraded_reads = false}]), instant durability,
    [timeout = 25.0], [retries = 2]. *)

val with_fd : ?period:float -> ?timeout:float -> ?accrual:float -> t -> t

val with_routing : ?hedge:bool -> ?degraded_reads:bool -> t -> t

val with_durability : Sim.Durable.config -> t -> t
val with_timeout : float -> t -> t
val with_retries : int -> t -> t

val fd_mode : t -> Sim.Failure_detector.mode
(** The {!Sim.Failure_detector.mode} this config implies:
    [Fixed_timeout fd.timeout] when [fd.accrual] is [None], else
    [Accrual] with the configured threshold. *)
