(** A small reusable domain pool with chunked parallel-for and
    deterministic reduction.

    The pool owns [jobs - 1] worker domains (the submitting domain is
    the remaining worker, so a [jobs = 1] pool runs everything inline
    with zero domains spawned).  Work is submitted as a {e batch} of
    numbered chunks; idle workers pull chunk indices from a shared
    cursor, so uneven chunks balance automatically.

    {b Determinism.}  Results must never depend on how many domains
    execute a batch.  The contract that guarantees this: the chunking
    of a problem is chosen by the {e caller} from the problem alone
    (never from [jobs]), every chunk writes only its own slot, and
    reductions combine the chunk results in a fixed order
    ({!reduce_tree} is a balanced binary tree over the chunk indices).
    The analyses in [lib/analysis] follow this contract and run the
    same chunks without a pool ({!init}), which is what makes their
    output the same with no pool and with [jobs] of 1, 2 and 4, bit
    for bit.

    {b Exceptions.}  If chunks raise, the batch still runs to
    completion and the exception of the {e lowest-numbered} failing
    chunk is re-raised in the submitter (with its backtrace) — again
    independent of domain count.

    {b Nesting.}  Chunk bodies must not submit to the pool they run on
    (there is one shared cursor, so nested batches would deadlock);
    such submissions are rejected with [Invalid_argument].  A pool is
    meant to be driven by one client domain at a time.

    {b Thread safety of chunk bodies.}  The pool runs chunk bodies
    concurrently; they must not share mutable state (per-chunk RNG
    streams, per-chunk scratch).  Beware hidden sharing through [lazy]
    values: concurrently forcing one from two domains raises
    [CamlinternalLazy.Undefined], so force them before submitting. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the number of domains worth
    spawning on this machine. *)

val create :
  ?name:string ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ?jobs:int ->
  unit ->
  t
(** [create ()] builds a pool with {!default_jobs} workers; [~jobs]
    overrides (must be >= 1).  When [~metrics] is given, every batch
    records into it: counters [exec.batches] and [exec.chunks], and
    histograms [exec.batch_ms] / [exec.chunk_ms] (wall-clock), all
    labelled with [pool=][name] (default ["pool"]).  Metrics are
    written by the submitting domain after the batch joins, so any
    [Obs.Metrics.t] is safe to pass.  When [~prof] is given, each
    batch is charged to the [exec.pool] category — batch-level and
    from the submitting domain only ({!Obs.Prof} accumulators are not
    domain-safe), so it covers the submitter's chunk work plus the
    join wait. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join and release the worker domains.  Idempotent; any later
    submission raises [Invalid_argument]. *)

val with_pool :
  ?name:string ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ?jobs:int ->
  (t -> 'a) ->
  'a
(** [create], run, [shutdown] (also on exception). *)

(** {2 Batch operations}

    All of them raise [Invalid_argument] on a negative chunk count, on
    a shut-down pool, and on nested submission. *)

val iter_chunks : t -> chunks:int -> (int -> unit) -> unit
(** Run chunk bodies [f 0 .. f (chunks - 1)], distributed over the
    pool; returns when all have finished. *)

val map_chunks : t -> chunks:int -> (int -> 'a) -> 'a array
(** Like {!iter_chunks}, collecting results indexed by chunk. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** One chunk per element. *)

val init : ?pool:t -> int -> (int -> 'a) -> 'a array
(** [Array.init n f], its elements computed as chunks on [pool] when
    one is given; the array is the same either way.  This is how an
    analysis keeps one code path with or without a pool: the pool
    decides only where the chunks run. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** In-order map: {!map_array} on [pool], plain [List.map] without
    one; the result is the same either way. *)

val reduce_tree : ('a -> 'a -> 'a) -> 'a array -> 'a
(** Deterministic balanced-tree fold (adjacent pairs, repeatedly):
    [reduce_tree f [|a; b; c; d; e|]] is
    [f (f (f a b) (f c d)) e].  The shape depends only on the array
    length, so float reductions are reproducible across domain counts.
    Raises [Invalid_argument] on an empty array. *)
