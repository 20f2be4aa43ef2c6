(** Small combinatorial enumeration helpers used by the quorum
    constructions (explicit quorum lists are products of per-row
    choices, k-subsets, etc.). *)

val iter_ksubset_masks : n:int -> k:int -> (int -> unit) -> unit
(** Iterate over all k-element subsets of [{0..n-1}] as raw masks, in
    increasing numeric order (Gosper's hack).  Requires [n <= 62]. *)

val ksubsets : 'a list -> int -> 'a list list
(** All k-element sublists, preserving order. *)

val product : 'a list list -> 'a list list
(** Cartesian product: one element from each inner list, in order.
    [product [] = [[]]]. *)

val choose_count : int -> int -> int
(** Exact C(n, k) for every n <= 62 (no intermediate product exceeds
    the result); raises on n > 62. *)
