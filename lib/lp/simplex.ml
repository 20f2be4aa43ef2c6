type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

(* The tableau holds the constraint rows in equality form
   [rows.(r) . x_all = rhs.(r)] over the extended variable vector
   (structural variables, then slacks, then artificials), plus a basis
   map [basis.(r)] giving the variable currently basic in row [r].
   Pivoting keeps rhs >= 0 (primal feasibility).  [runs] is the pivot's
   scratch, one per tableau, so solves on several domains share
   nothing: the pivot row's nonzero columns as runs of consecutive
   columns, run [i] from [runs.(2i)] up to, not including,
   [runs.(2i+1)]. *)
type tableau = {
  rows : float array array;
  rhs : float array;
  basis : int array;
  ncols : int;
  runs : int array;
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

(* Pivot on [(row, col)]; returns the number of runs of nonzero columns
   of the new pivot row, left in [t.runs].  Only those columns change
   in the other rows: [x -. f *. 0.0] is [x] up to the sign of a zero,
   and a zero's sign never reaches a comparison, a divisor or a
   result.  Runs rather than single columns keep a dense pivot row as
   cheap as a plain loop. *)
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
  let count = !count in
  t.rhs.(row) <- t.rhs.(row) /. d;
  for r = 0 to Array.length t.rows - 1 do
    if r <> row then begin
      let other = t.rows.(r) in
      let f = other.(col) in
      if f <> 0.0 then begin
        eliminate runs count prow other f;
        t.rhs.(r) <- t.rhs.(r) -. (f *. t.rhs.(row))
      end
    end
  done;
  t.basis.(row) <- col;
  count

(* The objective row is kept explicitly and updated by pivoting:
   [cost.(j)] is the reduced cost of column [j], [cost_rhs] minus the
   objective value.  Columns from [enter_below] on (the artificials in
   phase 2) never enter. *)
let run_phase ?(eps = 1e-9) t cost cost_rhs ~enter_below =
  let m = Array.length t.rows in
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
        let row = !leaving in
        let count = pivot t ~row ~col in
        (* Update the objective row at the pivot row's nonzeros. *)
        let f = cost.(col) in
        if f <> 0.0 then begin
          eliminate t.runs count t.rows.(row) cost f;
          cost_rhs := !cost_rhs -. (f *. t.rhs.(row))
        end;
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
  let rows = Array.make_matrix m ncols 0.0 in
  let rhs = Array.make m 0.0 in
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
  (* At most ncols / 2 + 1 runs. *)
  let t = { rows; rhs; basis; ncols; runs = Array.make (ncols + 2) 0 } in
  let is_artificial j = j >= nvars + nslack in
  (* Phase 1: minimize the sum of artificials.  Build its reduced-cost
     row by subtracting each artificial-basic row. *)
  let cost1 = Array.make ncols 0.0 in
  let cost1_rhs = ref 0.0 in
  for j = nvars + nslack to ncols - 1 do
    cost1.(j) <- 1.0
  done;
  for r = 0 to m - 1 do
    if art_needed.(r) then begin
      for j = 0 to ncols - 1 do
        cost1.(j) <- cost1.(j) -. rows.(r).(j)
      done;
      cost1_rhs := !cost1_rhs -. rhs.(r)
    end
  done;
  let phase1_feasible =
    if Array.exists (fun b -> b) art_needed then begin
      match run_phase ~eps t cost1 cost1_rhs ~enter_below:ncols with
      | `Unbounded -> false (* cannot happen: phase-1 objective >= 0 *)
      | `Optimal ->
          (* Feasible iff the artificial sum reached zero. *)
          let value = -. !cost1_rhs in
          if value > 1e-7 then false
          else begin
            (* Drive any artificial still basic (at zero) out of the
               basis where possible. *)
            for r = 0 to m - 1 do
              if is_artificial t.basis.(r) then begin
                let rec find j =
                  if j = nvars + nslack then None
                  else if abs_float t.rows.(r).(j) > eps then Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some col -> ignore (pivot t ~row:r ~col : int)
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
    (* Phase 2: objective row for c, reduced against the basis; it
       reuses phase 1's row. *)
    let cost2 = cost1 in
    Array.fill cost2 0 ncols 0.0;
    let cost2_rhs = ref 0.0 in
    Array.blit c 0 cost2 0 nvars;
    for r = 0 to m - 1 do
      let b = t.basis.(r) in
      if b >= 0 && b < ncols then begin
        let f = cost2.(b) in
        if f <> 0.0 then begin
          for j = 0 to ncols - 1 do
            cost2.(j) <- cost2.(j) -. (f *. t.rows.(r).(j))
          done;
          cost2_rhs := !cost2_rhs -. (f *. t.rhs.(r))
        end
      end
    done;
    match run_phase ~eps t cost2 cost2_rhs ~enter_below:(nvars + nslack) with
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
