(** The flat grid protocol (Cheung, Ammar & Ahamad 1990).

    Processes sit in a [rows x cols] grid.  The protocol defines

    - {e read} quorums: a {e row-cover} — one process from every row;
    - {e write} quorums: a {e full-line} — all processes of one row;
    - {e read-write} quorums: a full-line together with a row-cover
      (mutual exclusion; any two intersect in at least two processes).

    Section 4.2 of the paper refines the read-write quorum into the
    flat T-grid — a full-line plus one element per row {e below} it —
    which is exactly {!Wall.system} with equal widths; see {!t_grid}.

    All three modes admit closed-form failure probabilities because the
    rows are independent ({!failure_probability}), and for the same
    reason {!system} counts its available live sets of each size from
    products of per-row polynomials. *)

type mode = Read | Write | Read_write

val element : cols:int -> row:int -> col:int -> int
(** Row-major element ids. *)

val system : ?name:string -> rows:int -> cols:int -> mode -> Quorum.System.t

val t_grid : ?name:string -> rows:int -> cols:int -> unit -> Quorum.System.t
(** The flat T-grid refinement (a wall with [rows] rows of width
    [cols]). *)

val failure_probability : rows:int -> cols:int -> mode -> p:float -> float
(** Exact.  [Read_write] uses
    [1 - ((1-p^c)^r - (1-p^c-q^c)^r)]: the probability that some row is
    fully live {e and} every row is non-empty.  {!system}'s
    availability counts restate these row formulas over count
    polynomials: a change to one changes the other. *)

val failure_probability_hetero :
  rows:int -> cols:int -> mode -> p_of:(int -> float) -> float
(** Same with per-process crash probabilities. *)
