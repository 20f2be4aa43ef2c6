(* Simplex solver tests: known optima, infeasibility, unboundedness,
   degenerate cases, a randomized sanity property, and the solver
   against the dense-pivot simplex it replaced. *)

module S = Lp.Simplex

let check_opt name expected outcome =
  match outcome with
  | S.Optimal { objective; _ } ->
      Alcotest.(check (float 1e-6)) name expected objective
  | S.Infeasible -> Alcotest.fail (name ^ ": unexpectedly infeasible")
  | S.Unbounded -> Alcotest.fail (name ^ ": unexpectedly unbounded")

let test_basic_max () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2,6). *)
  let outcome =
    S.maximize ~c:[| 3.0; 5.0 |]
      ~a_ub:[| [| 1.0; 0.0 |]; [| 0.0; 2.0 |]; [| 3.0; 2.0 |] |]
      ~b_ub:[| 4.0; 12.0; 18.0 |] ()
  in
  check_opt "classic LP" 36.0 outcome;
  (match outcome with
  | S.Optimal { solution; _ } ->
      Alcotest.(check (float 1e-6)) "x" 2.0 solution.(0);
      Alcotest.(check (float 1e-6)) "y" 6.0 solution.(1)
  | _ -> assert false)

let test_min_with_equality () =
  (* min x + y st x + y = 2, x <= 1.5 -> 2. *)
  check_opt "equality" 2.0
    (S.solve ~c:[| 1.0; 1.0 |]
       ~a_ub:[| [| 1.0; 0.0 |] |]
       ~b_ub:[| 1.5 |]
       ~a_eq:[| [| 1.0; 1.0 |] |]
       ~b_eq:[| 2.0 |] ())

let test_infeasible () =
  (* x <= 1 and x = 3 *)
  match
    S.solve ~c:[| 1.0 |]
      ~a_ub:[| [| 1.0 |] |]
      ~b_ub:[| 1.0 |]
      ~a_eq:[| [| 1.0 |] |]
      ~b_eq:[| 3.0 |] ()
  with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  (* max x, no constraints *)
  match S.maximize ~c:[| 1.0 |] () with
  | S.Unbounded -> ()
  | S.Optimal _ | S.Infeasible -> Alcotest.fail "expected unbounded"

let test_negative_rhs () =
  (* min x st -x <= -3  (i.e. x >= 3) -> 3. *)
  check_opt "negative rhs" 3.0
    (S.solve ~c:[| 1.0 |] ~a_ub:[| [| -1.0 |] |] ~b_ub:[| -3.0 |] ())

let test_degenerate () =
  (* Redundant constraints sharing a vertex. *)
  check_opt "degenerate" 4.0
    (S.maximize ~c:[| 1.0; 1.0 |]
       ~a_ub:
         [|
           [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; 1.0 |];
         |]
       ~b_ub:[| 2.0; 2.0; 4.0; 4.0 |] ())

let test_zero_objective () =
  (* Any feasible point optimal. *)
  match
    S.solve ~c:[| 0.0; 0.0 |]
      ~a_eq:[| [| 1.0; 1.0 |] |]
      ~b_eq:[| 1.0 |] ()
  with
  | S.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-9)) "objective 0" 0.0 objective;
      Alcotest.(check (float 1e-6)) "feasible" 1.0 (solution.(0) +. solution.(1))
  | _ -> Alcotest.fail "expected optimal"

let test_load_lp_shape () =
  (* The load LP of a 3-element majority: optimal load is 2/3. *)
  let quorums = [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  let m = List.length quorums in
  let nv = m + 1 in
  let c = Array.make nv 0.0 in
  c.(m) <- 1.0;
  let a_ub =
    Array.init 3 (fun i ->
        let row = Array.make nv 0.0 in
        List.iteri (fun j q -> if List.mem i q then row.(j) <- 1.0) quorums;
        row.(m) <- -1.0;
        row)
  in
  let b_ub = Array.make 3 0.0 in
  let a_eq = [| Array.init nv (fun j -> if j < m then 1.0 else 0.0) |] in
  check_opt "majority-3 load" (2.0 /. 3.0)
    (S.solve ~c ~a_ub ~b_ub ~a_eq ~b_eq:[| 1.0 |] ())

let random_lp_feasibility =
  (* For random bounded LPs min c.x st x_i <= b_i the optimum is
     0 when all c >= 0 (x = 0 feasible). *)
  QCheck.Test.make ~name:"nonneg objective with box constraints -> 0"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 5) (pair (float_bound_inclusive 5.0) (float_bound_inclusive 5.0)))
    (fun spec ->
      QCheck.assume (spec <> []);
      let n = List.length spec in
      let c = Array.of_list (List.map fst spec) in
      let b_ub = Array.of_list (List.map (fun (_, b) -> b +. 0.1) spec) in
      let a_ub =
        Array.init n (fun i ->
            Array.init n (fun j -> if i = j then 1.0 else 0.0))
      in
      match S.solve ~c ~a_ub ~b_ub () with
      | S.Optimal { objective; _ } -> abs_float objective < 1e-7
      | S.Infeasible | S.Unbounded -> false)

(* --- Against the dense simplex ---------------------------------------- *)

(* The solver before pivots skipped the pivot row's zero columns, kept
   verbatim: every row update and objective-row update runs over all
   columns, and a [restrict] closure gates the entering scan. *)
module Dense = struct
  type outcome =
    | Optimal of { objective : float; solution : float array }
    | Infeasible
    | Unbounded

  (* The tableau holds the constraint rows in equality form
     [rows.(r) . x_all = rhs.(r)] over the extended variable vector
     (structural variables, then slacks, then artificials), plus a basis
     map [basis.(r)] giving the variable currently basic in row [r].
     Pivoting keeps rhs >= 0 (primal feasibility). *)
  type tableau = {
    rows : float array array;
    rhs : float array;
    basis : int array;
    ncols : int;
  }

  let pivot t ~row ~col =
    let prow = t.rows.(row) in
    let d = prow.(col) in
    for j = 0 to t.ncols - 1 do
      prow.(j) <- prow.(j) /. d
    done;
    t.rhs.(row) <- t.rhs.(row) /. d;
    Array.iteri
      (fun r other ->
        if r <> row then begin
          let f = other.(col) in
          if f <> 0.0 then begin
            for j = 0 to t.ncols - 1 do
              other.(j) <- other.(j) -. (f *. prow.(j))
            done;
            t.rhs.(r) <- t.rhs.(r) -. (f *. t.rhs.(row))
          end
        end)
      t.rows;
    t.basis.(row) <- col

  (* Reduced costs for objective vector [obj] (length ncols) given the
     current basis: z_j = obj_j - sum_r obj_basis(r) * rows(r)(j).  We keep
     the objective row explicitly instead, updating it by pivoting, which
     is what [run_phase] does via [cost] / [cost_rhs]. *)

  let run_phase ?(eps = 1e-9) t cost cost_rhs ~restrict =
    (* [restrict j] = variable j may enter the basis. *)
    let m = Array.length t.rows in
    let rec iterate guard =
      if guard = 0 then failwith "Simplex: iteration limit exceeded";
      (* Bland's rule: entering variable = smallest index with negative
         reduced cost. *)
      let entering =
        let rec find j =
          if j = t.ncols then None
          else if restrict j && cost.(j) < -.eps then Some j
          else find (j + 1)
        in
        find 0
      in
      match entering with
      | None -> `Optimal
      | Some col ->
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
            pivot t ~row ~col;
            (* Update the objective row. *)
            let f = cost.(col) in
            if f <> 0.0 then begin
              for j = 0 to t.ncols - 1 do
                cost.(j) <- cost.(j) -. (f *. t.rows.(row).(j))
              done;
              cost_rhs := !cost_rhs -. (f *. t.rhs.(row))
            end;
            iterate (guard - 1)
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
    let t = { rows; rhs; basis; ncols } in
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
        match run_phase ~eps t cost1 cost1_rhs ~restrict:(fun _ -> true) with
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
      (* Phase 2: objective row for c, reduced against the basis. *)
      let cost2 = Array.make ncols 0.0 in
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
      let restrict j = not (is_artificial j) in
      match run_phase ~eps t cost2 cost2_rhs ~restrict with
      | `Unbounded -> Unbounded
      | `Optimal ->
          let solution = Array.make nvars 0.0 in
          for r = 0 to m - 1 do
            let b = t.basis.(r) in
            if b >= 0 && b < nvars then solution.(b) <- t.rhs.(r)
          done;
          let objective =
            Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) c solution)
          in
          Optimal { objective; solution }
    end

  let maximize ?eps ~c ?a_ub ?b_ub ?a_eq ?b_eq () =
    let neg = Array.map (fun x -> -.x) c in
    match solve ?eps ~c:neg ?a_ub ?b_ub ?a_eq ?b_eq () with
    | Optimal { objective; solution } ->
        Optimal { objective = -.objective; solution }
    | (Infeasible | Unbounded) as other -> other
end

(* Bit for bit, except that +0 and -0 are equal. *)
let same_float a b =
  (a = 0.0 && b = 0.0)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_outcome (a : S.outcome) (b : Dense.outcome) =
  match (a, b) with
  | S.Optimal x, Dense.Optimal y ->
      same_float x.objective y.objective
      && Array.length x.solution = Array.length y.solution
      && Array.for_all2 same_float x.solution y.solution
  | S.Infeasible, Dense.Infeasible | S.Unbounded, Dense.Unbounded -> true
  | _ -> false

type lp = {
  c : float array;
  a_ub : float array array;
  b_ub : float array;
  a_eq : float array array;
  b_eq : float array;
}

let solves_alike lp =
  let { c; a_ub; b_ub; a_eq; b_eq } = lp in
  same_outcome
    (S.solve ~c ~a_ub ~b_ub ~a_eq ~b_eq ())
    (Dense.solve ~c ~a_ub ~b_ub ~a_eq ~b_eq ())
  && same_outcome
       (S.maximize ~c ~a_ub ~b_ub ~a_eq ~b_eq ())
       (Dense.maximize ~c ~a_ub ~b_ub ~a_eq ~b_eq ())

(* A random LP of one entry style: 0/1, small integers, eighths or
   arbitrary fractions, about 40 % zeros.  Right-hand sides may be
   negative or zero (degenerate vertices), and rows are sometimes
   repeated (degenerate ties). *)
let random_lp seed style =
  let rng = Quorum.Rng.create seed in
  let int lo hi = lo + Quorum.Rng.int rng (hi - lo + 1) in
  let entry () =
    if Quorum.Rng.float rng < 0.4 then 0.0
    else
      match style with
      | 0 -> 1.0
      | 1 -> float_of_int (int (-3) 3)
      | 2 -> float_of_int (int (-16) 16) /. 8.0
      | _ -> (4.0 *. Quorum.Rng.float rng) -. 2.0
  in
  let nvars = int 1 7 in
  let rows k =
    let rows = Array.make k [||] in
    for r = 0 to k - 1 do
      rows.(r) <-
        (if r > 0 && Quorum.Rng.float rng < 0.2 then Array.copy rows.(r - 1)
         else Array.init nvars (fun _ -> entry ()))
    done;
    rows
  in
  let rhs k =
    Array.init k (fun _ ->
        if Quorum.Rng.float rng < 0.2 then 0.0 else entry () *. 3.0)
  in
  let n_ub = int 0 5 and n_eq = int 0 2 in
  {
    c = Array.init nvars (fun _ -> entry ());
    a_ub = rows n_ub;
    b_ub = rhs n_ub;
    a_eq = rows n_eq;
    b_eq = rhs n_eq;
  }

let random_lps_alike =
  QCheck.Test.make ~name:"random LPs = dense simplex" ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, style) -> solves_alike (random_lp seed style))

(* A random LP with 8-24 constraint rows in [random_lp]'s entry styles,
   with its repeated rows and zero entries: a pivot eliminates the
   rows with a nonzero pivot-column entry, the objective row among
   them, four at a time, so here two or more full groups of four run,
   and so does every tail of 0-3 rows left after them. *)
let random_tall_lp seed style =
  let rng = Quorum.Rng.create seed in
  let int lo hi = lo + Quorum.Rng.int rng (hi - lo + 1) in
  let entry () =
    if Quorum.Rng.float rng < 0.4 then 0.0
    else
      match style with
      | 0 -> 1.0
      | 1 -> float_of_int (int (-3) 3)
      | 2 -> float_of_int (int (-16) 16) /. 8.0
      | _ -> (4.0 *. Quorum.Rng.float rng) -. 2.0
  in
  let nvars = int 1 12 in
  let rows k =
    let rows = Array.make k [||] in
    for r = 0 to k - 1 do
      rows.(r) <-
        (if r > 0 && Quorum.Rng.float rng < 0.2 then Array.copy rows.(r - 1)
         else Array.init nvars (fun _ -> entry ()))
    done;
    rows
  in
  let rhs k =
    Array.init k (fun _ ->
        if Quorum.Rng.float rng < 0.2 then 0.0 else entry () *. 3.0)
  in
  let m = int 8 24 in
  let n_eq = int 0 3 in
  let n_ub = m - n_eq in
  {
    c = Array.init nvars (fun _ -> entry ());
    a_ub = rows n_ub;
    b_ub = rhs n_ub;
    a_eq = rows n_eq;
    b_eq = rhs n_eq;
  }

let random_tall_lps_alike =
  QCheck.Test.make ~name:"random LPs of 8-24 rows = dense simplex" ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, style) -> solves_alike (random_tall_lp seed style))

(* The random LPs above reach all three outcomes. *)
let test_random_outcomes () =
  let seen = Array.make 3 false in
  for seed = 0 to 399 do
    let { c; a_ub; b_ub; a_eq; b_eq } = random_lp seed (seed mod 4) in
    match S.solve ~c ~a_ub ~b_ub ~a_eq ~b_eq () with
    | S.Optimal _ -> seen.(0) <- true
    | S.Infeasible -> seen.(1) <- true
    | S.Unbounded -> seen.(2) <- true
  done;
  Alcotest.(check (array bool))
    "optimal, infeasible, unbounded" [| true; true; true |] seen

(* The system-load LP of [Analysis.Load] over a quorum list: minimize t
   with each element's load at most t and the weights summing to 1. *)
let load_lp ~n quorums =
  let quorums = Array.of_list quorums in
  let m = Array.length quorums in
  let nv = m + 1 in
  {
    c = Array.init nv (fun j -> if j = m then 1.0 else 0.0);
    a_ub =
      Array.init n (fun i ->
          Array.init nv (fun j ->
              if j = m then -1.0
              else if Quorum.Bitset.mem quorums.(j) i then 1.0
              else 0.0));
    b_ub = Array.make n 0.0;
    a_eq = [| Array.init nv (fun j -> if j < m then 1.0 else 0.0) |];
    b_eq = [| 1.0 |];
  }

(* The read/write LP of [Analysis.Optimizer.mixed_load]. *)
let mixed_lp ~fr ~n reads writes =
  let rq = Array.of_list reads and wq = Array.of_list writes in
  let mr = Array.length rq and mw = Array.length wq in
  let nv = mr + mw + 1 in
  {
    c = Array.init nv (fun j -> if j = nv - 1 then 1.0 else 0.0);
    a_ub =
      Array.init n (fun i ->
          Array.init nv (fun j ->
              if j = nv - 1 then -1.0
              else if j < mr then
                if Quorum.Bitset.mem rq.(j) i then fr else 0.0
              else if Quorum.Bitset.mem wq.(j - mr) i then 1.0 -. fr
              else 0.0));
    b_ub = Array.make n 0.0;
    a_eq =
      [|
        Array.init nv (fun j -> if j < mr then 1.0 else 0.0);
        Array.init nv (fun j -> if j >= mr && j < mr + mw then 1.0 else 0.0);
      |];
    b_eq = [| 1.0; 1.0 |];
  }

let quorums spec =
  Quorum.System.quorums (Core.Registry.build_exn spec) |> Result.to_option

(* Every n = 15 instantiation of the catalogue with a quorum list,
   majority(15)'s 6,435 quorums included. *)
let test_load_lps () =
  List.iter
    (fun spec ->
      match quorums spec with
      | None -> ()
      | Some qs ->
          if not (solves_alike (load_lp ~n:15 qs)) then
            Alcotest.failf "%s: load LP differs from the dense simplex" spec)
    (List.concat_map snd (Core.Registry.instantiations ~n:15))

(* The optimizer's read/write pairs at n = 15 (the threshold pairs have
   a closed form and run no LP), at the ledger's read fractions. *)
let test_mixed_lps () =
  List.iter
    (fun (c : Analysis.Optimizer.candidate) ->
      let is_thresh spec = String.starts_with ~prefix:"thresh" spec in
      if c.read_spec <> c.write_spec && not (is_thresh c.read_spec) then
        match (quorums c.read_spec, quorums c.write_spec) with
        | Some reads, Some writes ->
            List.iter
              (fun fr ->
                if not (solves_alike (mixed_lp ~fr ~n:15 reads writes)) then
                  Alcotest.failf "%s at %g: mixed LP differs" c.label fr)
              [ 0.5; 0.9; 0.99 ]
        | _ -> Alcotest.failf "%s: no quorum lists" c.label)
    (Analysis.Optimizer.candidates ~n:15)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "equality" `Quick test_min_with_equality;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "load LP shape" `Quick test_load_lp_shape;
          QCheck_alcotest.to_alcotest random_lp_feasibility;
        ] );
      ( "dense",
        [
          QCheck_alcotest.to_alcotest random_lps_alike;
          Alcotest.test_case "random LPs reach every outcome" `Quick
            test_random_outcomes;
          Alcotest.test_case "n = 15 load LPs" `Quick test_load_lps;
          Alcotest.test_case "n = 15 mixed LPs" `Quick test_mixed_lps;
          QCheck_alcotest.to_alcotest random_tall_lps_alike;
        ] );
    ]
