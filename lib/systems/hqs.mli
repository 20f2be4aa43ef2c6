(** Hierarchical Quorum Consensus (Kumar 1991).

    The universe forms the leaves of a tree whose level [i] nodes each
    have [b_i] children; a node's quorum is obtained by taking quorums
    in a strict majority of its children, recursively (a leaf's quorum
    is itself).  Quorum size is [prod ceil((b_i+1)/2)], i.e. [n^0.63]
    for ternary trees.

    The paper's HQS(15) is the [\[3; 5\]] tree (quorum size 6) and
    HQS(27) the [\[3; 3; 3\]] tree (quorum size 8). *)

val system : ?name:string -> branching:int list -> unit -> Quorum.System.t
(** [system ~branching:\[b1; ...; bk\] ()] over [n = b1 * ... * bk]
    leaves.  All [b_i >= 1].  Its exact availability counts restate
    {!failure_probability_hetero}'s at-least-a-majority-of-children
    recursion over count polynomials: a change to one changes the
    other. *)

val quorum_size : branching:int list -> int

val quorum_count : branching:int list -> float
(** How many minimal quorums the system lists: C(b, m) times the
    subtree's count to the power m, with m = b/2 + 1, from the top
    level down.  A float, exact below 2^53 and never overflowing.  Past
    {!Thresh.enumeration_cap} the system refuses to list them: forcing
    [min_quorums] raises [Invalid_argument] before building any
    quorum, and {!Quorum.System.quorums} turns that into an
    [Error]. *)

val failure_probability : branching:int list -> p:float -> float
(** Exact: recursive majority-of-children survival recursion. *)

val failure_probability_hetero :
  branching:int list -> p_of:(int -> float) -> float
(** Same with per-leaf crash probabilities (leaf ids are depth-first,
    0-based). *)
