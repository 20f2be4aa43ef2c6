(** Byzantine-fault-tolerant replicated register over a masking quorum
    system (Malkhi & Reiter's protocol shape, the adaptation the
    paper's related work anticipates).

    Up to [f] replicas are Byzantine: they return fabricated
    (version, value) pairs on reads and discard writes.  A write
    installs (version, value) on a full quorum; a read collects a
    quorum of replies and accepts the highest version {e vouched for by
    at least f + 1 replicas}.  Over an [f]-masking system ([|Q inter
    Q'| >= 2f+1]) this is safe: the reader's quorum shares at least
    [2f+1] replicas with the last write's quorum, of which at least
    [f+1] are correct, so the genuine value is always vouched; a
    fabricated pair can gather at most [f] vouchers, so it is never
    accepted.

    Over a merely crash-tolerant system (e.g. plain majority, where
    intersections can be a single replica) the same protocol loses
    writes: the read statistics expose this ({!stale_reads} grows),
    which is the experimental content of the [byzantine] test suite and
    ablation. *)

type t
type msg

val create :
  msg Sim.Engine.t ->
  system:Quorum.System.t ->
  f:int ->
  byzantine:int list ->
  timeout:float ->
  t
(** The register on [engine], whose node count must equal [system.n];
    it installs its handlers there.  [byzantine] lists the compromised
    replica ids (their behaviour is simulated inside the protocol
    handlers); [f] is the protocol's vouching threshold parameter.
    [List.length byzantine] may exceed [f] to study over-budget
    attacks. *)

val write : t -> client:int -> value:int -> unit
(** Clients must be correct replicas (not in [byzantine]). *)

val read : t -> client:int -> unit

val reads_ok : t -> int
val writes_ok : t -> int
val timeouts : t -> int
val unavailable : t -> int

val fabricated_reads : t -> int
(** Reads that returned a value never written by any client — must be
    0 whenever the protocol's vouching threshold is respected
    ([f >= 1]), even over weak quorum systems. *)

val stale_reads : t -> int
(** Reads that missed a write completed before they started — must be
    0 over an [f]-masking system with at most [f] Byzantine replicas. *)

val inconclusive_reads : t -> int
(** Reads where no (version, value) pair reached [f + 1] vouchers (the
    reader falls back to the initial value). *)
