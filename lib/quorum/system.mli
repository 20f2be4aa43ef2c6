(** The quorum-system abstraction.

    A quorum system over a universe of [n] processes (Definition 3.1) is
    represented behaviourally: the one operation every analysis needs is
    the monotone availability predicate "does this live-set contain a
    quorum?" (Definition 3.2 reads failure as the complement of this
    event).  Constructions additionally expose, when feasible, an
    explicit list of minimal quorums (for load LPs and intersection
    tests) and a quorum-selection strategy (for protocols and
    strategy-induced load, Definitions 3.3/3.4). *)

type t = {
  name : string;  (** Human-readable identifier, e.g. ["h-triang(15)"]. *)
  n : int;  (** Universe size. *)
  avail : Bitset.t -> bool;
      (** [avail live] is true when [live] contains some quorum.  It
          must be monotone: adding live processes never makes an
          available set unavailable.  The exact scans rely on it
          ([Coterie.walk] decides whole subcubes of live sets from
          their ends), and [test_scan] checks it for every catalogue
          family up to 12 processes.  Up to 62 processes it allocates
          nothing for the catalogue families, [K_coterie.copies] and
          [Masking.boost] (most run their mask kernel through
          {!Bitset.to_mask}); beyond that, for weighted voting, h-grid,
          h-T-grid, h-triang and Paths.  {!embed} adds the translated
          live set. *)
  avail_mask : (int -> bool) option;
      (** The same check over a raw mask ([n <= 62]), equally monotone;
          the exact 2^n scans call it.  Every construction that
          provides one allocates nothing in it ([test_select]'s "alloc"
          group checks each catalogue example, every 15-process
          instantiation, Paths, [K_coterie.copies] and
          [Masking.boost]). *)
  avail_counts : (unit -> int array) option;
      (** Exact availability counts, [n + 1] entries: entry [k] is how
          many live sets of [k] processes hold a quorum.  They must be
          the counts a scan of every live set through [avail_mask]
          gives, integer for integer; [test_scan] checks this against
          the monotone walk and the set-by-set scan for every family
          that provides them: weighted voting and majority, grid,
          h-grid, h-T-grid, h-triang, HQS, the tree protocol, walls
          (CWlog, triangle, diamond and the flat T-grid among them),
          thresholds and the singleton.  Of the catalogue, Y, Paths
          and FPP have none: their availability is not built from
          parts that share no process.  [Failure.exact_poly] uses them
          instead of walking the 2^n live sets, and only it calls them
          ([n <= 30]), so a family attaches them only where they cost
          less than the walk (weighted voting leaves them off for huge
          votes).  {!rename} keeps them; {!embed} drops them. *)
  min_quorums : Bitset.t list Lazy.t option;
      (** Minimal quorums (the coterie), when enumerable.  Their order
          is part of the contract: the load LP takes one column per
          quorum in list order and Bland's rule picks the lowest
          column, so a reordered list can change an optimal strategy
          (and, at equal optimal load, its quorum sizes and RTT) even
          where the load stays.  A change to how a family lists its
          quorums must keep the order; weighted voting's and the
          families built on [Coterie.minimal_of_avail] list them in
          ascending mask order. *)
  min_masks : (unit -> int array) option;
      (** The same minimal quorums as raw masks ([n <= 62]), in the
          same order, for a construction that lists them without
          building a bitset per quorum (weighted voting and majority
          up to 22 processes).  [Optimizer.sweep] keys its shared load
          LPs on them: majority(15)'s 6,435 quorums then take one
          array instead of 51,480 words of bitsets and list cells.
          Each call returns a fresh array; it never raises.  {!rename}
          keeps them; {!embed} drops them. *)
  select : Rng.t -> live:Bitset.t -> Bitset.t option;
      (** Pick a quorum of live processes, or [None] if unavailable.
          Implements the construction's load-balancing strategy.  The
          returned bitset is fresh and belongs to the caller, who may
          keep or mutate it.  The selectors the simulator runs
          allocate only that result, with three exceptions: weighted
          voting (majority) also allocates two arrays of the live
          members, {!embed} the base system's live set and quorum, and
          h-grid rows wider than 15 cells an index array.  Scratch is
          per call, never shared between calls. *)
}

val make :
  name:string ->
  n:int ->
  avail:(Bitset.t -> bool) ->
  ?avail_mask:(int -> bool) ->
  ?avail_counts:(unit -> int array) ->
  ?min_quorums:Bitset.t list Lazy.t ->
  ?min_masks:(unit -> int array) ->
  ?select:(Rng.t -> live:Bitset.t -> Bitset.t option) ->
  unit ->
  t
(** Build a system.  When [select] is omitted it defaults to a uniform
    choice among the live minimal quorums (requires [min_quorums]);
    when that is also missing, selection raises. *)

val of_quorums : name:string -> n:int -> Bitset.t list -> t
(** An explicit system from its quorum list.  The list is minimized
    (dominated quorums dropped); availability tests subset-containment
    against precomputed masks when [n <= 62]. *)

val avail_mask_exn : t -> int -> bool
(** The mask fast-path, derived from [avail] through a reused scratch
    bitset when the construction did not provide one.  Requires
    [n <= 62].  The scratch is domain-local, so the derived closure is
    safe to share across the domains of a parallel scan (each domain
    gets its own scratch). *)

val quorums : t -> (Bitset.t list, string) result
(** Force [min_quorums]; [Error] when the construction does not
    enumerate its quorums.  Never raises. *)

val quorums_exn : t -> Bitset.t list
(** CLI/test convenience over {!quorums}; raises [Invalid_argument]
    when the construction does not enumerate.  Library, bench and
    example code should match on {!quorums} instead. *)

val rename : t -> string -> t
(** The same system under another name, availability counts included. *)

val embed : ?name:string -> universe:int -> place:int array -> t -> t
(** [embed ~universe ~place base] re-expresses [base] over a larger
    universe: logical element [l] lives at physical process
    [place.(l)] (all distinct, [< universe]); processes outside the
    image are permanent spares that never appear in a quorum.
    Availability, selection (including its RNG draws) and the minimal
    quorums are the base system's behaviour translated through the
    placement — this is the placement machinery behind
    {!Protocols.Membership} and {!Protocols.Shard_router}.  The
    base's availability counts and quorum masks are dropped: an exact
    scan of the embedded system walks its live sets.  The default name
    is ["<base>/<universe>"].  Raises [Invalid_argument] on a malformed
    placement. *)

val shrink_select :
  (Bitset.t -> bool) -> Rng.t -> live:Bitset.t -> Bitset.t option
(** Generic selection for constructions with no cheap structural
    strategy (Paths, Y): start from the live set and discard elements
    in random order while availability is preserved, yielding a
    uniform-ish random {e minimal} quorum contained in [live]. *)

val pp : Format.formatter -> t -> unit
