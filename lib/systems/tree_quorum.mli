(** The tree quorum protocol (Agrawal & El Abbadi 1991).

    Processes form a complete binary tree.  A quorum of a subtree is
    its root together with a quorum of either child, or — when the root
    is inaccessible — quorums of {e both} children.  Quorum sizes thus
    range from [log2 (n+1)] (a root-to-leaf path) to [(n+1)/2] (all
    leaves); the paper cites this as the tree-based alternative to HQS
    with variable quorum sizes. *)

val system : ?name:string -> height:int -> unit -> Quorum.System.t
(** [system ~height ()] over [n = 2^height - 1] processes, ids in
    level order (root 0, children of [i] at [2i+1], [2i+2]).  Its exact
    availability counts restate {!failure_probability_hetero}'s
    recursion over count polynomials: with (T, A) a subtree's total
    and available counts and U = T - A, a node is available on
    x (T^2 - U^2) + A^2 of its live sets; a change to one changes the
    other. *)

val failure_probability : height:int -> p:float -> float
(** Exact: [P(ok v) = q * P(ok_l or ok_r) + (1-q) * P(ok_l) P(ok_r)]
    with independent subtrees (leaves: [q]). *)

val failure_probability_hetero :
  height:int -> p_of:(int -> float) -> float
(** Same with per-node crash probabilities (level-order ids). *)
