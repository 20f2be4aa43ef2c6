type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

(* The tableau holds the constraint rows in equality form
   [rows.(r) . x_all = rhs.(r)] over the extended variable vector
   (structural variables, then slacks, then artificials), plus a basis
   map [basis.(r)] giving the variable currently basic in row [r].
   Pivoting keeps rhs >= 0 (primal feasibility).  The last row,
   [rows.(m)] with [m = Array.length basis], is the objective row:
   [rows.(m).(j)] is the reduced cost of column [j] and [rhs.(m)] minus
   the objective value; it is pivoted like the others but never leaves
   or enters the basis.

   [runs], [targets] and [factors] are the pivot's scratch, one set per
   tableau, so solves on several domains share nothing and a pivot
   allocates nothing: the pivot row's nonzero columns as runs of
   consecutive columns, run [i] from [runs.(2i)] up to, not including,
   [runs.(2i+1)]; and the rows that the pivot eliminates with their
   factors. *)
type tableau = {
  rows : float array array;
  rhs : float array;
  basis : int array;
  ncols : int;
  runs : int array;
  targets : float array array;
  factors : float array;
}

(* [row] -= [f] * [prow] over the runs [0 .. count-1] of [prow]'s
   nonzero columns.  Every run lies within [0, ncols), the length of
   every row, hence the unchecked accesses. *)
let eliminate runs count prow row f =
  for i = 0 to count - 1 do
    for j = runs.(2 * i) to runs.((2 * i) + 1) - 1 do
      Array.unsafe_set row j
        (Array.unsafe_get row j -. (f *. Array.unsafe_get prow j))
    done
  done

(* [eliminate] on [targets.(k)] with [factors.(k)] for every [k < nt],
   four rows per pass over the runs, which loads each pivot-row entry
   once for the four; the last [nt mod 4] rows go one at a time.  Each
   entry still computes [x -. f *. p] once, so the rows come out as
   one-row passes leave them, bit for bit. *)
let eliminate_rows runs count prow targets factors nt =
  let k = ref 0 in
  while !k + 4 <= nt do
    let k0 = !k in
    let r0 = Array.unsafe_get targets k0
    and r1 = Array.unsafe_get targets (k0 + 1)
    and r2 = Array.unsafe_get targets (k0 + 2)
    and r3 = Array.unsafe_get targets (k0 + 3) in
    let f0 = Array.unsafe_get factors k0
    and f1 = Array.unsafe_get factors (k0 + 1)
    and f2 = Array.unsafe_get factors (k0 + 2)
    and f3 = Array.unsafe_get factors (k0 + 3) in
    for i = 0 to count - 1 do
      for j = runs.(2 * i) to runs.((2 * i) + 1) - 1 do
        let p = Array.unsafe_get prow j in
        Array.unsafe_set r0 j (Array.unsafe_get r0 j -. (f0 *. p));
        Array.unsafe_set r1 j (Array.unsafe_get r1 j -. (f1 *. p));
        Array.unsafe_set r2 j (Array.unsafe_get r2 j -. (f2 *. p));
        Array.unsafe_set r3 j (Array.unsafe_get r3 j -. (f3 *. p))
      done
    done;
    k := k0 + 4
  done;
  for k = !k to nt - 1 do
    eliminate runs count prow targets.(k) factors.(k)
  done

(* Pivot on [(row, col)], the objective row included.  Only the pivot
   row's nonzero columns change in the other rows: [x -. f *. 0.0] is
   [x] up to the sign of a zero, and a zero's sign never reaches a
   comparison, a divisor or a result.  Runs rather than single columns
   keep a dense pivot row as cheap as a plain loop. *)
let pivot t ~row ~col =
  let prow = t.rows.(row) in
  let d = prow.(col) in
  let runs = t.runs in
  let count = ref 0 and inside = ref false in
  for j = 0 to t.ncols - 1 do
    let x = prow.(j) /. d in
    prow.(j) <- x;
    if x <> 0.0 then begin
      if not !inside then begin
        runs.(2 * !count) <- j;
        inside := true
      end
    end
    else if !inside then begin
      runs.((2 * !count) + 1) <- j;
      incr count;
      inside := false
    end
  done;
  if !inside then begin
    runs.((2 * !count) + 1) <- t.ncols;
    incr count
  end;
  t.rhs.(row) <- t.rhs.(row) /. d;
  let nt = ref 0 in
  for r = 0 to Array.length t.rows - 1 do
    if r <> row then begin
      let other = t.rows.(r) in
      let f = other.(col) in
      if f <> 0.0 then begin
        t.targets.(!nt) <- other;
        t.factors.(!nt) <- f;
        incr nt;
        t.rhs.(r) <- t.rhs.(r) -. (f *. t.rhs.(row))
      end
    end
  done;
  eliminate_rows runs !count prow t.targets t.factors !nt;
  t.basis.(row) <- col

(* Columns from [enter_below] on (the artificials in phase 2) never
   enter. *)
let run_phase ?(eps = 1e-9) t ~enter_below =
  let m = Array.length t.basis in
  let cost = t.rows.(m) in
  let rec iterate guard =
    if guard = 0 then failwith "Simplex: iteration limit exceeded";
    (* Bland's rule: entering variable = smallest index with negative
       reduced cost. *)
    let col = ref 0 in
    while !col < enter_below && not (cost.(!col) < -.eps) do
      incr col
    done;
    if !col = enter_below then `Optimal
    else begin
      let col = !col in
      (* Ratio test; Bland tie-break on the leaving basis index. *)
      let leaving = ref (-1) in
      let best = ref infinity in
      for r = 0 to m - 1 do
        let a = t.rows.(r).(col) in
        if a > eps then begin
          let ratio = t.rhs.(r) /. a in
          if
            ratio < !best -. eps
            || (ratio < !best +. eps
               && !leaving >= 0
               && t.basis.(r) < t.basis.(!leaving))
          then begin
            best := ratio;
            leaving := r
          end
        end
      done;
      if !leaving < 0 then `Unbounded
      else begin
        pivot t ~row:!leaving ~col;
        iterate (guard - 1)
      end
    end
  in
  iterate 100_000

let solve ?(eps = 1e-9) ~c ?(a_ub = [||]) ?(b_ub = [||]) ?(a_eq = [||])
    ?(b_eq = [||]) () =
  let nvars = Array.length c in
  let n_ub = Array.length a_ub and n_eq = Array.length a_eq in
  if Array.length b_ub <> n_ub || Array.length b_eq <> n_eq then
    invalid_arg "Simplex.solve: constraint size mismatch";
  let check_row a =
    if Array.length a <> nvars then
      invalid_arg "Simplex.solve: row width mismatch"
  in
  Array.iter check_row a_ub;
  Array.iter check_row a_eq;
  let m = n_ub + n_eq in
  (* Columns: structural | slacks (one per <= row) | artificials (one
     per row; unused ones get a zero column). *)
  let nslack = n_ub in
  let ncols = nvars + nslack + m in
  let rows = Array.make_matrix (m + 1) ncols 0.0 in
  let rhs = Array.make (m + 1) 0.0 in
  let basis = Array.make m (-1) in
  let art_needed = Array.make m false in
  for r = 0 to n_ub - 1 do
    Array.blit a_ub.(r) 0 rows.(r) 0 nvars;
    rows.(r).(nvars + r) <- 1.0;
    rhs.(r) <- b_ub.(r);
    if rhs.(r) < 0.0 then begin
      (* Negate to keep rhs >= 0; the slack becomes a surplus so an
         artificial is required. *)
      for j = 0 to ncols - 1 do
        rows.(r).(j) <- -.rows.(r).(j)
      done;
      rhs.(r) <- -.rhs.(r);
      art_needed.(r) <- true
    end
    else basis.(r) <- nvars + r
  done;
  for k = 0 to n_eq - 1 do
    let r = n_ub + k in
    Array.blit a_eq.(k) 0 rows.(r) 0 nvars;
    rhs.(r) <- b_eq.(k);
    if rhs.(r) < 0.0 then begin
      for j = 0 to ncols - 1 do
        rows.(r).(j) <- -.rows.(r).(j)
      done;
      rhs.(r) <- -.rhs.(r)
    end;
    art_needed.(r) <- true
  done;
  for r = 0 to m - 1 do
    if art_needed.(r) then begin
      rows.(r).(nvars + nslack + r) <- 1.0;
      basis.(r) <- nvars + nslack + r
    end
  done;
  (* At most ncols / 2 + 1 runs, and at most m rows besides the pivot
     row. *)
  let t =
    {
      rows;
      rhs;
      basis;
      ncols;
      runs = Array.make (ncols + 2) 0;
      targets = Array.make m [||];
      factors = Array.make m 0.0;
    }
  in
  let is_artificial j = j >= nvars + nslack in
  (* Phase 1: minimize the sum of artificials.  Build its reduced-cost
     row by subtracting each artificial-basic row. *)
  let cost = rows.(m) in
  for j = nvars + nslack to ncols - 1 do
    cost.(j) <- 1.0
  done;
  for r = 0 to m - 1 do
    if art_needed.(r) then begin
      for j = 0 to ncols - 1 do
        cost.(j) <- cost.(j) -. rows.(r).(j)
      done;
      rhs.(m) <- rhs.(m) -. rhs.(r)
    end
  done;
  let phase1_feasible =
    if Array.exists (fun b -> b) art_needed then begin
      match run_phase ~eps t ~enter_below:ncols with
      | `Unbounded -> false (* cannot happen: phase-1 objective >= 0 *)
      | `Optimal ->
          (* Feasible iff the artificial sum reached zero. *)
          let value = -.rhs.(m) in
          if value > 1e-7 then false
          else begin
            (* Drive any artificial still basic (at zero) out of the
               basis where possible.  These pivots also update the
               phase-1 objective row, which phase 2 overwrites. *)
            for r = 0 to m - 1 do
              if is_artificial t.basis.(r) then begin
                let rec find j =
                  if j = nvars + nslack then None
                  else if abs_float t.rows.(r).(j) > eps then Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some col -> pivot t ~row:r ~col
                | None -> () (* redundant row; harmless *)
              end
            done;
            true
          end
    end
    else true
  in
  if not phase1_feasible then Infeasible
  else begin
    (* Phase 2: objective row for c, reduced against the basis, in
       place of phase 1's. *)
    Array.fill cost 0 ncols 0.0;
    rhs.(m) <- 0.0;
    Array.blit c 0 cost 0 nvars;
    for r = 0 to m - 1 do
      let b = t.basis.(r) in
      if b >= 0 && b < ncols then begin
        let f = cost.(b) in
        if f <> 0.0 then begin
          for j = 0 to ncols - 1 do
            cost.(j) <- cost.(j) -. (f *. t.rows.(r).(j))
          done;
          rhs.(m) <- rhs.(m) -. (f *. t.rhs.(r))
        end
      end
    done;
    match run_phase ~eps t ~enter_below:(nvars + nslack) with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let solution = Array.make nvars 0.0 in
        for r = 0 to m - 1 do
          let b = t.basis.(r) in
          if b >= 0 && b < nvars then solution.(b) <- t.rhs.(r)
        done;
        let objective = ref 0.0 in
        for j = 0 to nvars - 1 do
          objective := !objective +. (c.(j) *. solution.(j))
        done;
        let objective = !objective in
        Optimal { objective; solution }
  end

let maximize ?eps ~c ?a_ub ?b_ub ?a_eq ?b_eq () =
  let neg = Array.map (fun x -> -.x) c in
  match solve ?eps ~c:neg ?a_ub ?b_ub ?a_eq ?b_eq () with
  | Optimal { objective; solution } ->
      Optimal { objective = -.objective; solution }
  | (Infeasible | Unbounded) as other -> other
