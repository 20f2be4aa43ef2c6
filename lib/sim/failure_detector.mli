(** Heartbeat failure detector: suspected-live views without
    simulation omniscience.

    Every node broadcasts a heartbeat each [period]; node [i] {e
    suspects} node [j] according to the detector's {!mode}:

    - {!Fixed_timeout} [tau]: suspect when nothing was heard for more
      than [tau] — the classic eventually-perfect heartbeat detector,
      and the historical behaviour of this module.
    - {!Accrual}: the phi-accrual family.  Each (observer, peer) pair
      keeps a sliding [window] of inter-arrival times; the suspicion
      level is [phi = log10(e) * elapsed / mean_interarrival]
      (the exponential-tail approximation of Hayashibara et al.'s
      detector) and the pair is suspected once [phi >= threshold].
      Until [min_samples] inter-arrivals have been observed the pair
      falls back to the fixed [timeout].  Silences longer than
      [timeout] are not folded into the window — they are failures,
      not latency variation.

    Protocols select quorums from {!view} — the set of nodes the
    caller does {e not} suspect — instead of the engine's omniscient
    live-set, so crash detection, gray failures (slow nodes miss the
    timeout or inflate phi) and partitions (the far side goes silent)
    all flow through one mechanism.  {!suspicion} exposes the graded
    level (normalized so [>= 1.0] means suspected in either mode) for
    suspicion-aware routing and hedging.

    Properties under the simulator's fault model (matching the classic
    eventually-perfect detector; executable as qcheck properties in
    [test_fd.ml]):
    - {e completeness}: a crashed node stops beating and is suspected
      by every live node within [timeout] + one period;
    - {e eventual accuracy}: after recovery (or a partition heal)
      heartbeats resume and suspicion clears within one period plus
      network latency.

    Accuracy is also {e measured} against the engine's oracle, sampled
    once per beat period at each observer: detection latency (crash to
    first suspicion, [fd.detection_latency]), false-positive onsets
    ([fd.false_positives]), per-sample false suspicions
    ([fd.false_suspicions], historical), missed-detection samples
    ([fd.missed_suspicions]) and suspicion transitions
    ([fd.transitions]); {!stats} reads the per-observer totals back.
    The oracle's crash clock advances at beat granularity, so
    latencies are accurate to within one period.

    Heartbeats do not ride the event queue.  Each node's beat round is
    a {e background} engine timer (it does not keep [Engine.run]
    alive) that makes one {!Engine.beat_round}: a beat to every peer,
    counted in [Engine.messages_background], not [messages_sent].
    Each arrival waits in the engine until the receiver next reads its
    own opinions: every query below first applies the receiver's
    arrivals so far ({!Engine.take_beats}), earliest first, exactly as
    if each had been handled when it arrived.  A dead observer's
    arrivals are applied at the start of every round that beats to it,
    so its backlog stays bounded.  The round then samples the
    observer's accuracy once: the oracle's liveness is re-read from the
    engine only when some node crashed or recovered since the last
    sample ({!Engine.liveness_changes}), and the round's counts reach
    the metrics once each ([fd.beats_sent] and the accuracy counters,
    only when positive; [fd.suspected{node=..}] through a handle
    made at {!create}).

    The beat rounds' timers carry their own callbacks, one per node,
    built at {!create}.  Call {!on_recover} from the engine's recovery
    handler so the node's heartbeat chain restarts and its stale
    opinions reset.  Heartbeats never reach the protocol's
    [on_message]. *)

type 'msg t

type mode =
  | Fixed_timeout of float
      (** suspect after this many time units of silence *)
  | Accrual of { threshold : float; window : int; min_samples : int }
      (** suspect when the accrual level [phi] reaches [threshold];
          [window] recent inter-arrivals per pair, fixed-timeout
          fallback until [min_samples] of them exist *)

val create :
  'msg Engine.t -> ?period:float -> ?timeout:float -> ?mode:mode -> unit ->
  'msg t
(** A detector over every node of [engine], already heartbeating: every
    node presumes every peer live as of now, and the nodes' first beat
    rounds are staggered across the first [period].  [period] defaults
    to 1.0, [timeout] to 5.0; [timeout] must exceed [period] or
    everyone would flap between beats.  [mode] defaults to
    [Fixed_timeout timeout] — exactly the historical detector.  In
    [Accrual] mode [timeout] remains the cold-start fallback and the
    inter-arrival admission cap.  Raises [Invalid_argument] on a
    non-positive threshold, [window < 2] or [min_samples] outside
    [1..window]. *)

val on_recover : 'msg t -> node:int -> unit
(** Restart the recovered node's heartbeat chain and reset its
    suspicions (it presumes everyone live until proven otherwise),
    after applying the beats that reached it before it crashed.  A
    beat round armed before the crash and still queued is cancelled,
    so the node runs one chain. *)

val suspects : 'msg t -> node:int -> int -> bool
(** [suspects t ~node j]: does [node] currently suspect [j]?  A node
    never suspects itself. *)

val suspicion : 'msg t -> node:int -> int -> float
(** The graded suspicion level of [j] as seen by [node], normalized so
    that [>= 1.0] coincides with {!suspects} (up to the strict/large
    comparison at exactly 1.0): [elapsed / timeout] in fixed mode,
    [phi / threshold] in accrual mode.  [0.0] for self. *)

val view : 'msg t -> node:int -> Quorum.Bitset.t
(** The suspected-live set from [node]'s perspective (includes
    [node]). *)

type stats = {
  detections : int;  (** dead peers this observer started suspecting *)
  mean_detect : float;  (** mean crash-to-suspicion latency *)
  max_detect : float;
  false_positives : int;  (** suspicion onsets against live peers *)
  missed : int;
      (** beat samples where a peer dead beyond [timeout + period] was
          still unsuspected *)
  transitions : int;  (** suspicion flips, either direction *)
}

val stats : 'msg t -> node:int -> stats
(** Per-observer accuracy totals, measured against the engine's
    oracle at beat granularity. *)

val suspected_count : 'msg t -> node:int -> int
val period : 'msg t -> float
val timeout : 'msg t -> float
val mode : 'msg t -> mode
