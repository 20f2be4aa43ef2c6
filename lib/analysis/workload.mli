(** The unified workload specification every analysis entry point
    consumes.

    The paper's tables fix the deployment parameters one at a time
    (a crash probability here, a read fraction there); real capacity
    planning asks the inverse question — {e given} a workload, which
    system should run it?  A {!t} bundles the four inputs that question
    needs:

    - the {b read fraction} [fr] of the operation mix (reads use the
      read quorums / strategy, writes the write side);
    - the {b failure model}: one iid crash probability, or a
      per-process vector (the Senn–Cachin heterogeneous setting);
    - the {b latency model}: optionally a {!Sim.Topology} whose
      pairwise distances price each quorum's round trip;
    - the {b resilience target} [f]: the system must stay available
      under {e every} crash set of size [f].

    Consumers: {!Failure.of_workload} (availability under the failure
    model) and {!Optimizer.sweep} (the catalogue search).  The
    scattered [~p_of] / [~p] variants {!Failure} used to take remain
    as thin compatibility shims over this record.  The simulated
    operation mixes ([Protocols.Workload.read_write_mix],
    [Protocols.Chaos.run_store_h]) take a bare [~read_fraction]: it is
    the one field they use. *)

type failure_model =
  | Iid of float  (** every process crashes independently with this p *)
  | Per_process of float array
      (** [p.(i)] is process [i]'s crash probability; the array length
          must equal the universe size of the analyzed system *)

type latency_model =
  | No_latency
      (** no latency model: the RTT objective is identically 0 and
          never separates points *)
  | Topology of Sim.Topology.t
      (** quorum RTT is twice the distance to the farthest member
          (see {!Sim.Topology.rtt}); the topology must cover the
          universe *)

type t = {
  read_fraction : float;  (** fraction of operations that are reads *)
  failures : failure_model;
  latency : latency_model;
  resilience : int;  (** target [f]: survive every [f]-crash set *)
}

val make :
  ?failures:failure_model ->
  ?latency:latency_model ->
  ?resilience:int ->
  read_fraction:float ->
  unit ->
  (t, string) result
(** Validated construction; defaults [Iid 0.1], [No_latency], [f = 1].
    [Error] on a read fraction outside [0, 1], a probability outside
    [0, 1] or a negative resilience target. *)

val default : t
(** [make ~read_fraction:0.5 ()]: a balanced mix, iid p = 0.1,
    no latency model, f = 1. *)

val validate : t -> n:int -> (unit, string) result
(** The [n]-dependent checks: a [Per_process] vector must have length
    exactly [n], a [Topology] must cover [n] processes, and
    [resilience < n]. *)

val p_of : t -> n:int -> (int -> float, string) result
(** The per-process crash probability function of the failure model,
    after {!validate}. *)

val hetero :
  n:int -> base:float -> (int * float) list -> (failure_model, string) result
(** [Per_process] from a base probability plus [(id, p)] overrides —
    the shape [quorumctl]'s [--hetero id:p,...] flag parses to.
    [Error] on an id outside the universe or a probability outside
    [0, 1]. *)

val describe : t -> string
(** One line for reports: read fraction, failure model, latency model,
    resilience target. *)
