(** Generic wall quorum systems (Peleg & Wool, "Crumbling walls").

    A wall organizes the universe into [d] rows of widths [w_1 .. w_d]
    (top to bottom); a quorum is one {e full row} [i] together with one
    element from every row {e below} [i].  Walls unify several classic
    constructions used by the paper:

    - CWlog {!Cwlog} is the wall with [w_i = ceil(log2 (i+1))];
    - the triangle systems of Luk-Wong / Peleg-Wool {!Triangle} are the
      wall with [w_i = i];
    - the {e flat} T-grid of section 4.2 is the wall with equal widths;
    - diamonds {!Diamond} use widths [1 .. m .. 1].

    Because rows are disjoint, the failure probability admits an exact
    four-state dynamic program over rows ({!failure_probability}), used
    to cross-check the generic enumeration. *)

type t = private {
  widths : int array;  (** Row widths, top to bottom; all positive. *)
  offsets : int array;  (** [offsets.(i)] = id of first element of row i. *)
  n : int;
}

val layout : int array -> t
(** Validate widths and lay out element ids row-major, top to bottom. *)

val element : t -> row:int -> idx:int -> int
(** Id of the [idx]-th element of [row] (both 0-based). *)

val system : ?name:string -> int array -> Quorum.System.t
(** [system widths] builds the wall quorum system.  Quorums are
    enumerated explicitly, refused past {!Thresh.enumeration_cap}
    before any is built ({!quorum_count} counts them);
    selection picks a usable base row uniformly and live elements below
    uniformly.  Its exact availability counts run
    {!failure_probability_hetero}'s four-state row DP over count
    polynomials (so CWlog, triangles, diamonds and flat T-grids have
    them too): a change to one changes the other. *)

val quorum_count : int array -> float
(** Number of minimal quorums of the wall, as a float (exact below
    2^53, never overflowing). *)

val failure_probability : widths:int array -> p:float -> float
(** Exact failure probability by the row DP: scan rows bottom-up
    tracking the joint law of (suffix contains a quorum, suffix rows all
    non-empty). *)

val failure_probability_hetero :
  widths:int array -> p_of:(int -> float) -> float
(** Same DP with a per-process crash probability ([p_of] is indexed by
    element id). *)
