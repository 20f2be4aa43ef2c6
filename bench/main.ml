(* Reproduction harness: regenerates every table and figure of the
   paper, the in-text section 4.3 / section 6 numbers, the ablations,
   the simulated-protocol comparison and the bechamel micro-benchmarks.

   Usage: main.exe [--fast] [--metrics] [--jobs N] [--gate FILE] [target ...]
   Targets: table1 table2 table3 table4 table5 figure1 figure2 curves
            sect43 sect6 ablations sims chaos churn fd latency placement
            byzantine thresholds perf parallel optimizer throughput engine
            all (default: all)

   --fast replaces the 2^25..2^28 exact enumerations (h-T-grid(25),
   Paths(24), Y(28)) with 1e6-trial Monte Carlo estimates.
   --metrics makes the chaos target dump the full per-scenario metrics
   registry (rpc, failure-detector and protocol instruments) after each
   report row.
   --jobs N runs the analysis hot paths on an N-domain pool; they run
   the same chunks without one, so results are identical for any N,
   1 included (the parallel target checks this, reports the speedups
   and writes BENCH_parallel.json).
   --gate FILE makes the engine target compare its measurements against
   the committed baseline (bench/BENCH_engine.baseline.json) and fail
   on regression: relay ops/sec (calibration-normalized) down more than
   15% or minor words per relay op up more than 10%. *)

let targets : (string * (unit -> unit)) list =
  [
    ("table1", Tables.table1);
    ("table2", Tables.table2);
    ("table3", Tables.table3);
    ("table4", Tables.table4);
    ("table5", Tables.table5);
    ("figure1", Figures.figure1);
    ("figure2", Figures.figure2);
    ("curves", Figures.availability_curves);
    ("sect43", Tables.sect43);
    ("sect6", Tables.sect6);
    ( "ablations",
      fun () ->
        Ablations.shapes ();
        Ablations.growth ();
        Ablations.heterogeneous ();
        Ablations.refinement () );
    ("sims", Sims.run);
    ("chaos", Chaos.run);
    ("churn", Churn.run);
    ("fd", Fd.run);
    ("latency", Latency.run);
    ("placement", Placement.run);
    ("byzantine", Byz.run);
    ("thresholds", Thresholds.run);
    ("perf", Perf.run);
    ("parallel", Parallel.run);
    ("optimizer", Optimizer.run);
    ("throughput", Throughput.run);
    ("engine", Engine_bench.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse_flags acc = function
    | [] -> List.rev acc
    | "--fast" :: rest ->
        Util.fast := true;
        parse_flags acc rest
    | "--metrics" :: rest ->
        Util.metrics := true;
        parse_flags acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            Util.jobs := n;
            parse_flags acc rest
        | _ ->
            Printf.eprintf "error: --jobs expects a positive integer\n";
            exit 1)
    | "--jobs" :: [] ->
        Printf.eprintf "error: --jobs expects a positive integer\n";
        exit 1
    | "--gate" :: path :: rest ->
        Util.gate := Some path;
        parse_flags acc rest
    | "--gate" :: [] ->
        Printf.eprintf "error: --gate expects a baseline JSON path\n";
        exit 1
    | a :: rest -> parse_flags (a :: acc) rest
  in
  let args = parse_flags [] args in
  let selected =
    match args with [] | [ "all" ] -> List.map fst targets | l -> l
  in
  Printf.printf
    "Revisiting Hierarchical Quorum Systems (ICDCS 2001) - reproduction \
     harness%s\n"
    (if !Util.fast then " [--fast: Monte Carlo for 2^25+ enumerations]"
     else "");
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown target %s (known: %s)\n" name
            (String.concat " " (List.map fst targets));
          exit 1)
    selected;
  match !Util.the_pool with
  | Some p -> Exec.Pool.shutdown p
  | None -> ()
