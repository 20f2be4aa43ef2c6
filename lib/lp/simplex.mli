(** Dense two-phase primal simplex.

    Solves {v minimize c.x  subject to  A_ub x <= b_ub,
                                        A_eq x  = b_eq,  x >= 0 v}

    Built for the system-load linear program of Definition 3.4 (minimize
    the maximum element load over strategies): tens of rows, up to a few
    thousand columns, always feasible and bounded there.  The solver is
    nevertheless a complete general-purpose implementation: Bland's
    anti-cycling rule, explicit infeasible / unbounded outcomes, and a
    certified basic solution.

    A pivot collects the pivot row's nonzero columns once, as runs of
    consecutive columns, and the other rows with a nonzero pivot-column
    entry, the objective row among them; it then eliminates those rows
    in groups of four, one pass over the runs per group, so each
    pivot-row entry is loaded once per group (the last one to three
    rows go singly).  Load LP pivot rows are about 40 % zeros.  This is
    exact: every entry still computes [x -. f *. p] once, [x -. f *. 0.0]
    is [x] up to the sign of a zero, and a zero's sign never reaches a
    comparison, a divisor or a result, so the pivot sequence, the
    objective and the solution are the ones a dense one-row-at-a-time
    pivot gives, bit for bit.  The scratch belongs to each solve's
    tableau, so solves on several domains share nothing and a pivot
    allocates nothing. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

val solve :
  ?eps:float ->
  c:float array ->
  ?a_ub:float array array ->
  ?b_ub:float array ->
  ?a_eq:float array array ->
  ?b_eq:float array ->
  unit ->
  outcome
(** [solve ~c ?a_ub ?b_ub ?a_eq ?b_eq ()] minimizes [c.x] for [x >= 0].
    Omitted constraint blocks default to empty.  [eps] is the pivot /
    feasibility tolerance (default 1e-9). *)

val maximize :
  ?eps:float ->
  c:float array ->
  ?a_ub:float array array ->
  ?b_ub:float array ->
  ?a_eq:float array array ->
  ?b_eq:float array ->
  unit ->
  outcome
(** Same, maximizing; the reported objective is the maximum. *)
