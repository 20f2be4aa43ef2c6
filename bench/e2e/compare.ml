(* [e2e.exe compare A B]: two sets of runs of the ledger, side by side.

   A and B are files holding the standard output of any number of
   ledger runs (e.g. [for s in 1 2 3 4 5; do ... --seed $s >> A; done]);
   every ["report": "e2e-ledger"] line in them is one run.  For each
   workload and end-to-end metric it prints both sides' median and
   quartiles, B's change against A in the metric's worse direction, and
   a verdict against the bound BENCHMARK.json fixes:

   - ok          the change is within the bound;
   - WORSE       B is worse than A by more than the bound;
   - unresolved  either side's spread (q3 - q1) / median exceeds the
                 bound, so the runs cannot tell a change from noise.

   Runs of the same seed on both sides must replay the same simulation
   (equal [sim_digest]); their exact change in minor words per op is
   printed per seed.  The exit status is 1 on a WORSE row or a digest
   mismatch. *)

type run = {
  workload : string;
  seed : int;
  digest : string;
  e2e : (string * float) list;
}

let load path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | line -> lines (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.length line = 0 || line.[0] <> '{' then None
      else
        match Json.parse line with
        | Error _ -> None
        | Ok j -> (
            match
              ( Option.bind (Json.member "report" j) Json.to_str,
                Option.bind (Json.member "workload" j) Json.to_str,
                Option.bind (Json.member "seed" j) Json.to_num,
                Option.bind (Json.member "sim_digest" j) Json.to_str,
                Json.member "e2e" j )
            with
            | Some "e2e-ledger", Some workload, Some seed, Some digest, Some (Json.Obj e2e)
              ->
                Some
                  {
                    workload;
                    seed = int_of_float seed;
                    digest;
                    e2e = List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num v)) e2e;
                  }
            | _ -> None))
    (lines [])

type verdict = Ok | Worse | Unresolved

let verdict_label = function Ok -> "ok" | Worse -> "WORSE" | Unresolved -> "unresolved"

(* Relative change of B against A, signed so that positive is worse. *)
let worse_by ~better a b =
  let d = (b -. a) /. Float.abs a in
  if better = "higher" then -.d else d

let spread xs =
  let q1, med, q3 = Stats.quartiles xs in
  (q1, med, q3, (q3 -. q1) /. Float.abs med)

let judge ~bound ~better xs ys =
  let _, ma, _, sa = spread xs and _, mb, _, sb = spread ys in
  if sa > bound || sb > bound then Unresolved
  else if worse_by ~better ma mb > bound then Worse
  else Ok

let run path_a path_b =
  let a = load path_a and b = load path_b in
  let names =
    List.filter
      (fun w -> List.exists (fun r -> r.workload = w) (a @ b))
      (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)
  in
  let bad = ref false in
  Printf.printf "%-12s %-19s %29s %29s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3] (n)" "B median [q1, q3] (n)" "B worse" "bound" "verdict";
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) a
      and rb = List.filter (fun r -> r.workload = w) b in
      List.iter
        (fun (mt : Ledger.metric) ->
          let values rs = List.filter_map (fun r -> List.assoc_opt mt.Ledger.name r.e2e) rs in
          let xs = values ra and ys = values rb in
          let side vs =
            if vs = [] then "-"
            else
              let q1, med, q3, _ = spread vs in
              Printf.sprintf "%.4g [%.4g, %.4g] (%d)" med q1 q3 (List.length vs)
          in
          let bound = Option.value ~default:0.0 mt.Ledger.bound in
          let change, verdict =
            if xs = [] || ys = [] then ("-", "missing")
            else
              let v = judge ~bound ~better:mt.Ledger.better xs ys in
              if v = Worse then bad := true;
              ( Printf.sprintf "%+.2f%%"
                  (100.0
                  *. worse_by ~better:mt.Ledger.better (Stats.median xs) (Stats.median ys)),
                verdict_label v )
          in
          Printf.printf "%-12s %-19s %29s %29s %8s %5.1f%%  %s\n" w mt.Ledger.name
            (side xs) (side ys) change (100.0 *. bound) verdict)
        Ledger.end_to_end;
      (* Seeds run on both sides.  The simulation must replay exactly:
         a refactor that changes [sim_digest] changed behaviour.
         Allocation is exact per seed too, but may change with the code;
         its per-seed change is information, judged above by its bound. *)
      let shared =
        List.filter_map
          (fun x -> Option.map (fun y -> (x, y)) (List.find_opt (fun y -> y.seed = x.seed) rb))
          ra
      in
      let differing = List.filter (fun (x, y) -> x.digest <> y.digest) shared in
      if differing <> [] then bad := true;
      Printf.printf "%-12s %-19s %s\n" w "sim_digest"
        (if shared = [] then "no seed run on both sides"
         else if differing = [] then
           Printf.sprintf "identical on %d shared seeds" (List.length shared)
         else
           Printf.sprintf "DIFFER on seeds %s"
             (String.concat ", "
                (List.map (fun (x, _) -> string_of_int x.seed) differing)));
      let alloc r = List.assoc_opt "alloc_words_per_op" r.e2e in
      let changed = List.filter (fun (x, y) -> alloc x <> alloc y) shared in
      if shared <> [] then
        Printf.printf "%-12s %-19s %s\n" w "allocs per seed"
          (if changed = [] then
             Printf.sprintf "identical on %d shared seeds" (List.length shared)
           else
             String.concat ", "
               (List.map
                  (fun (x, y) ->
                    match (alloc x, alloc y) with
                    | Some a, Some b ->
                        Printf.sprintf "%d: %+.3f%%" x.seed
                          (100.0 *. worse_by ~better:"lower" a b)
                    | _ -> Printf.sprintf "%d: missing" x.seed)
                  changed)))
    names;
  if !bad then 1 else 0
