(** Deterministic splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that
    every experiment, test and simulation is reproducible from a seed.
    The generator is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a
    64-bit state advanced by a Weyl sequence and finalized with a strong
    mixer.  It is not cryptographic; it is fast, has period 2^64 and
    passes BigCrush, which is ample for Monte-Carlo estimation and
    discrete-event simulation.

    The state is 8 bytes read and written in place, so advancing it
    allocates nothing.  Results box where OCaml boxes them: the [int64]
    of {!bits64}, and the floats of {!float} and {!exponential} when the
    call is not inlined — ocamlopt boxes float arguments and results of
    such calls, and builds with [-opaque] inline nothing across modules.
    Code in other modules that needs a uniform, Bernoulli or exponential
    draw without a boxed float takes {!bits53} and scales it itself:
    [float_of_int (bits53 t) *. 0x1.0p-53] is exactly [float t]. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator duplicating [t]'s current
    state; advancing one does not affect the other. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of the remainder of [t]'s stream, advancing [t] once.
    Use it to give sub-components their own reproducible streams. *)

val advance : t -> int -> unit
(** [advance t k] moves [t] to where [k] single-step draws would leave
    it, in constant time.  {!bits64}, {!bits53}, {!float}, {!bool},
    {!bernoulli}, {!exponential} and {!pick_weighted} are one step
    each; {!int}, {!pick} and {!shuffle_in_place} reject and redraw,
    so they take a varying number.  A sampler that draws a fixed
    number of steps per trial can therefore start any trial from an
    advanced {!copy} of its stream.  [k] must be non-negative. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of the next {!bits64} output, in [\[0, 2^53)]:
    one step, the draw behind {!float}, {!bernoulli} and
    {!exponential}. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples an exponential distribution;
    used for latency models in the simulator. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_weighted : t -> weights:float array -> int
(** [pick_weighted t ~weights] returns index [i] with probability
    proportional to [weights.(i)].  Weights must be non-negative and
    not all zero. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)
