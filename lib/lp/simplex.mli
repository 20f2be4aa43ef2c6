(** Dense two-phase primal simplex.

    Solves {v minimize c.x  subject to  A_ub x <= b_ub,
                                        A_eq x  = b_eq,  x >= 0 v}

    Built for the system-load linear program of Definition 3.4 (minimize
    the maximum element load over strategies): tens of rows, up to a few
    thousand columns, always feasible and bounded there.  The solver is
    nevertheless a complete general-purpose implementation: Bland's
    anti-cycling rule, explicit infeasible / unbounded outcomes, and a
    certified basic solution.

    A pivot collects the pivot row's nonzero columns once and updates
    the other rows and the objective row at those columns only; load
    LP pivot rows are about 40 % zeros.  This is exact: [x -. f *. 0.0]
    is [x] up to the sign of a zero, and a zero's sign never reaches a
    comparison, a divisor or a result, so the pivot sequence, the
    objective and the solution are the ones a dense pivot gives, bit
    for bit.  The index scratch belongs to each solve's tableau, so
    solves on several domains share nothing. *)

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
