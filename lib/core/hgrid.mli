(** The hierarchical grid of Kumar & Cheung (1991), section 4.1 of the
    paper.

    Processes are the level-0 objects; a logical object at level [i] is
    a grid of [m_i x n_i] objects of level [i-1].  Quorums are obtained
    recursively from the top object:

    - a {e row-cover} takes a row-cover in at least one object of every
      row (level 0: the object itself) — the {e read} quorum;
    - a {e full-line} takes a full-line in all objects of some row —
      the {e write} quorum;
    - a {e read-write} quorum is the union of a row-cover and a
      full-line.

    The module also exposes the structural queries the hierarchical
    T-grid of section 4.2 needs: global positions (Definition 4.1), the
    highest base row of a live full-line, and threshold-restricted
    row-covers (partial row-covers). *)

type shape = private
  | Leaf of { id : int; row : int; col : int }
      (** A process with its global position. *)
  | Grid of { cells : shape array array; row0 : int; row1 : int }
      (** [cells.(i).(j)]; the node spans global rows
          [row0 <= r < row1]. *)

type t = private {
  shape : shape;
  n : int;
  global_rows : int;
  global_cols : int;
  dims : (int * int) list;
}

val of_dims : (int * int) list -> t
(** [of_dims \[ (m1, n1); ...; (mk, nk) \]] builds the uniform
    hierarchy whose top object is an [m1 x n1] grid of objects that are
    themselves [m2 x n2] grids, and so on; level-0 objects sit at the
    end.  Element ids are row-major in the flattened
    [(m1*...*mk) x (n1*...*nk)] global grid. *)

val flat : rows:int -> cols:int -> t
(** Single-level grid, [of_dims \[ (rows, cols) \]]. *)

val preferred_2x2 : rows:int -> cols:int -> t
(** Factor the global grid into as many nested uniform 2x2 levels as
    divisibility allows, e.g. 4x4 becomes [\[(2,2); (2,2)\]]. *)

val of_blocks : row_parts:int list -> col_parts:int list -> t
(** Two-level hierarchy with non-uniform blocks: the top object is a
    [length row_parts x length col_parts] grid whose cell [(i, j)] is a
    flat [row_parts(i) x col_parts(j)] grid of processes.  E.g.
    [~row_parts:\[1;2;2\] ~col_parts:\[1;2;2\]] is a 5x5 global grid of
    (mostly) 2x2 logical blocks. *)

val auto_2x2 : ?ceil_first:bool -> rows:int -> cols:int -> unit -> t
(** The paper's Table 1 convention: "logical grids have size 2x2
    whenever it is possible", including odd dimensions — every logical
    object is a (at most) 2x2 grid of sub-objects of near-halved,
    possibly different sizes, recursively down to single processes.
    [ceil_first] (default false, which is what Table 1 matches) puts
    the larger half in the first row/column of each split. *)

(** {1 Structural checks}

    Closure-free: none allocates.  Each check over the live bitset has
    a copy over a raw mask ([n <= 62]) for the exact 2^n scans.  The
    systems below check availability with them: {!read_system} with
    [covers live 0], {!write_system} with [lined], {!rw_system} with
    both, and [Htgrid.system] with [covers live (line_base live)]. *)

val covers : Quorum.Bitset.t -> int -> shape -> bool
(** [covers live r shape]: some hierarchical row-cover has all its
    elements of global rows [>= r] live (elements above the threshold
    are exempt — the partial row-cover of section 4.2; [r = 0] is the
    full row-cover). *)

val lined : Quorum.Bitset.t -> shape -> bool
(** Some hierarchical full-line is live. *)

val line_base : Quorum.Bitset.t -> shape -> int
(** Greatest [r] such that some live full-line uses only elements of
    global rows [>= r] — i.e. the topmost row of the lowest-sitting
    live full-line — or [-1] when no full-line is live. *)

val covers_mask : int -> int -> shape -> bool
val lined_mask : int -> shape -> bool

val line_base_mask : int -> shape -> int
(** [covers], [lined] and [line_base] over a raw mask of live
    processes. *)

val avail_counts : t -> (base:int -> cover:int -> bool) -> int array
(** [avail_counts t ok]: entry [k] counts the live sets of [k]
    processes whose [line_base] [base] and least covering threshold
    [cover] (the [r] from which [covers live r] holds) satisfy [ok].
    One DP over the shape, each node's live sets counted per
    [(base, cover)] state; it gives the exact availability counts of
    the three systems below and of [Htgrid.system]. *)

(** {1 Quorum enumeration} *)

val row_cover_quorums : shape -> int list list
val full_line_quorums : shape -> int list list

val full_lines_with_base : shape -> (int * int list) list
(** Every hierarchical full-line paired with its topmost (minimum)
    global row. *)

val partial_cover_quorums : shape -> int -> int list list
(** Row-covers restricted to global rows [>= r] (deduplicated). *)

(** {1 Selection}

    Both selectors add the quorum they pick to a caller-owned bitset
    and allocate nothing, except an index array for the visiting order
    of a row wider than 15 cells; on failure they add nothing.  Their draws are fixed: a
    row-cover shuffles the cells of each row, in row order, and descends
    into the first that covers; a full-line shuffles the rows and takes
    the first that is full, descending into its cells in order. *)

val select_cover :
  Quorum.Rng.t ->
  live:Quorum.Bitset.t ->
  threshold:int ->
  shape ->
  Quorum.Bitset.t ->
  bool
(** [select_cover rng ~live ~threshold shape q] adds a live row-cover
    restricted to global rows [>= threshold] to [q]: threshold [0] is
    the full row-cover, a higher one the partial row-cover of section
    4.2.  [false] when none is live. *)

val select_full_line :
  Quorum.Rng.t -> live:Quorum.Bitset.t -> shape -> Quorum.Bitset.t -> int
(** [select_full_line rng ~live shape q] adds a live full-line to [q]
    and returns its topmost global row, or returns [-1] when no
    full-line is live. *)

(** {1 Quorum systems} *)

val read_system : ?name:string -> t -> Quorum.System.t
val write_system : ?name:string -> t -> Quorum.System.t

val rw_system : ?name:string -> t -> Quorum.System.t
(** The h-grid mutual-exclusion system the paper's Table 1 calls
    "h-grid": quorums are unions of a full-line and a row-cover. *)

(** {1 Exact analysis} *)

type mode = Read | Write | Read_write

val failure_probability : t -> mode -> p:float -> float
(** Exact, via the per-level joint law of (row-cover available,
    full-line available) — sub-objects are disjoint, hence
    independent. *)

val failure_probability_hetero : t -> mode -> p_of:(int -> float) -> float
(** Same recursion with per-process crash probabilities. *)

val render : ?quorum:Quorum.Bitset.t -> t -> string
(** ASCII rendering of the global grid with hierarchy separators
    (Figure 1); elements of [quorum] are starred. *)
