(** The singleton coterie: one quorum, one process.

    Optimal for individual crash probabilities above 1/2
    (Proposition 3.2); included as the degenerate baseline. *)

val make : int -> Quorum.System.t
(** [make n] has the single quorum [{0}] over a universe of [n]
    processes.  Its exact availability counts are x (1+x)^(n-1): the
    live sets that hold process 0. *)
