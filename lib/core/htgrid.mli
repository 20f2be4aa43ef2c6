(** The hierarchical T-grid (section 4.2) — the paper's first
    contribution.

    A mutual-exclusion quorum of the h-grid (full-line plus full
    row-cover) carries redundant elements: the quorum of the T-grid is
    a hierarchical {e full-line} [L] together with a {e partial
    row-cover with respect to [L]} — a row-cover from which every
    element {e above} a topmost element of [L] (Definitions 4.1/4.2:
    lexicographically smaller hierarchical row vector) is dropped.
    Theorem 4.1 / Lemma 4.1: any two such quorums intersect.

    Quorum sizes range from [sqrt n] (a bottom full-line, nothing
    below) to [2 sqrt n - 1]; availability, load and mean quorum size
    all improve on the h-grid (Tables 1-4).

    The module also implements the two selection strategies analyzed in
    section 4.3: the load-optimal strategy that bases full-lines on
    whole global rows with tuned row probabilities
    ({!flat_row_strategy}), and the all-quorums variant that lets each
    full-line fragment drop to a lower local line with small
    probability ({!select_lower_line}). *)

val system : ?name:string -> Hgrid.t -> Quorum.System.t
(** Availability: there is a threshold row [r] with a live full-line
    sitting fully at global rows [>= r] and a live partial row-cover
    for threshold [r] (two O(n) recursive passes, [Hgrid.line_base]
    then [Hgrid.covers], or their mask copies; neither allocates).
    Quorums are enumerated as full-line x partial-cover unions,
    minimized.  The exact availability counts are
    [Hgrid.avail_counts] on [line_base >= 0] and a covering threshold
    at most [line_base]: the same two numbers. *)

val quorums : Hgrid.t -> Quorum.Bitset.t list
(** The minimal T-grid quorums. *)

val flat_row_strategy : Hgrid.t -> Quorum.Strategy.t
(** Section 4.3's load-minimizing strategy: the full-line is a whole
    global row [r], picked with the probability [w_r] that equalizes
    element loads ([w_r = k - S_(r-1)/cols] solved top-down with
    [sum w_r = 1]); the partial cover picks uniform elements in each
    row below [r].  The returned strategy is explicit and exact. *)

val select_lower_line :
  epsilon:float ->
  Hgrid.t ->
  Quorum.Rng.t ->
  live:Quorum.Bitset.t ->
  Quorum.Bitset.t option
(** The section 4.3 variant that uses {e all} quorums: each full-line
    fragment independently drops to a lower local row with probability
    [epsilon] at every level; the partial cover then respects the
    resulting topmost row.  Only fully-live structures are selected. *)
