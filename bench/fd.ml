(* Failure detection: the detection-time vs false-positive tradeoff,
   failure-detector-driven vs omniscient membership availability under
   sustained churn, and hedging's tail-latency effect under gray
   failure.

   Three sub-benches, all into BENCH_fd.json:

   - [detector sweep]: the replicated store (clients route by detector
     view) under the fd stress scenarios, swept over fixed timeouts
     and phi-accrual thresholds.  The crash scenarios price detection
     latency and missed detections; the no-crash scenarios
     (asym-link, suspect-burst) make every suspicion false by
     construction, isolating the false-positive cost.  The headline:
     aggressive fixed timeouts detect fast but pay hundreds of false
     positives under loss bursts, while the accrual detector adapts
     its horizon to observed inter-arrival jitter and keeps both ends
     of the tradeoff.

   - [membership]: the dynamic-membership register under Poisson churn
     with the controller either omniscient (resize) or blinded to the
     members' quorum-merged detector views with flap hysteresis (fd).
     The availability gap is the measured price of realistic failure
     detection; stale_reads must be 0 in both arms.

   - [hedging]: the store under the gray scenario with hedging off vs
     on — duplicated stragglers cut the p99 while safety counters stay
     untouched.

   The seed (47), horizon and detector timeout are
   Protocols.Experiment's, and the membership arm runs at the churn
   bench's pins; the seed is echoed into BENCH_fd.json, so any row is
   replayed exactly (the detector sweep by `quorumctl fd`). *)

module C = Protocols.Chaos
module E = Protocols.Experiment

let churn_rate = 0.1
let horizon () = E.fd_horizon ~fast:!Util.fast
let spec = "htriang(15)"

type detector = Fixed of float | Accrual of float

let detectors () =
  if !Util.fast then [ Fixed 5.0; Accrual 2.0 ]
  else
    [ Fixed 2.0; Fixed 5.0; Fixed 8.0; Accrual 1.0; Accrual 2.0; Accrual 3.0 ]

let sweep_labels () =
  if !Util.fast then [ "churn-iid"; "suspect-burst" ]
  else [ "churn-iid"; "gray-flap"; "asym-link"; "suspect-burst" ]

let run_one ~det ~hedge scenario =
  let system = Util.system spec in
  let fd_timeout, accrual =
    match det with
    | Fixed tau -> (tau, None)
    | Accrual phi -> (E.fd_timeout, Some phi)
  in
  C.run_fd ~seed:E.fd_seed ~fd_timeout ?accrual ~hedge ~read_system:system
    ~write_system:system ~name:spec scenario

(* Print the rows, then fail on the first stale read. *)
let print_checked reports =
  List.iter (fun r -> Printf.printf "%s\n" (C.fd_row r)) reports;
  Option.iter failwith (List.find_map E.fd_verdict reports)

let sweep_json ~scenario (r : C.fd_report) =
  Printf.sprintf
    "{\"scenario\": %S, \"detector\": %S, \"seed\": %d, \"issued\": %d, \
     \"ok\": %d, \"stale_reads\": %d, \"unavailable\": %d, \"hedges\": %d, \
     \"degraded_writes\": %d, \"detections\": %d, \"mean_detect\": %.2f, \
     \"max_detect\": %.2f, \"false_positives\": %d, \"missed\": %d, \
     \"transitions\": %d, \"p99_latency\": %.2f, \"budget_hit\": %b}"
    scenario r.C.detector r.C.seed r.C.issued r.C.ok r.C.stale_reads
    r.C.unavailable r.C.hedges r.C.degraded_writes r.C.detections
    r.C.mean_detect r.C.max_detect r.C.false_positives r.C.missed
    r.C.transitions r.C.p99_latency r.C.budget_hit

let membership_json (r : C.churn_report) =
  Printf.sprintf
    "{\"mode\": %S, \"seed\": %d, \"issued\": %d, \"ok\": %d, \
     \"availability\": %.4f, \"stale_reads\": %d, \"epoch_switches\": %d, \
     \"proposals\": %d, \"replacements\": %d, \"false_evictions\": %d, \
     \"switch_downtime\": %.2f, \"final_members\": %d, \"budget_hit\": %b}"
    r.C.mode r.C.seed r.C.issued r.C.ok r.C.availability r.C.stale_reads
    r.C.epoch_switches r.C.proposals r.C.replacements r.C.false_evictions
    r.C.switch_downtime r.C.final_members r.C.budget_hit

let hedge_json ~hedge (r : C.fd_report) =
  Printf.sprintf
    "{\"scenario\": %S, \"hedge\": %b, \"seed\": %d, \"ok\": %d, \
     \"hedges\": %d, \"stale_reads\": %d, \"p99_latency\": %.2f, \
     \"budget_hit\": %b}"
    r.C.label hedge r.C.seed r.C.ok r.C.hedges r.C.stale_reads
    r.C.p99_latency r.C.budget_hit

let write_json ~sweep ~membership ~hedging =
  let block rows =
    String.concat ",\n" (List.map (fun j -> "    " ^ j) rows)
  in
  let oc = open_out (Util.out_path "BENCH_fd.json") in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"fd\",\n\
    \  \"fast\": %b,\n\
    \  \"horizon\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"detector_sweep\": [\n%s\n  ],\n\
    \  \"membership\": [\n%s\n  ],\n\
    \  \"hedging\": [\n%s\n  ]\n\
     }\n"
    !Util.fast (horizon ()) E.fd_seed (block sweep) (block membership)
    (block hedging);
  close_out oc

let run () =
  let h = horizon () in
  let n = (Util.system spec).Quorum.System.n in
  Printf.printf "\n== fd: detection time vs accuracy (%s) ==\n" spec;
  Printf.printf "%s\n" (C.fd_header ());
  (* 1. Detector sweep over the fd stress scenarios. *)
  let sweep =
    Exec.Pool.map ?pool:(Util.pool ())
      (fun (label, det) ->
        let scenario = C.scenario_of_label ~n ~horizon:h label in
        (label, run_one ~det ~hedge:false scenario))
      (List.concat_map
         (fun label -> List.map (fun det -> (label, det)) (detectors ()))
         (sweep_labels ()))
  in
  print_checked (List.map snd sweep);
  (* 2. FD-driven vs omniscient membership under Poisson churn. *)
  Printf.printf
    "\n== fd: membership availability, omniscient vs detector-driven ==\n";
  Printf.printf "%s\n" (C.churn_header ());
  let membership =
    List.map
      (fun mode ->
        fst
          (C.run_churn_h ~seed:E.fd_seed ~rate:E.churn_op_rate
             ~op_timeout:E.churn_op_timeout ~rows:E.churn_rows
             ~period:E.churn_period ~lease:E.churn_lease ~mode
             ~universe:E.churn_universe
             (E.churn_scenario ~downtime:E.churn_downtime ~horizon:h
                churn_rate)))
      [ C.Resize; C.Fd ]
  in
  List.iter (fun r -> Printf.printf "%s\n" (C.churn_row r)) membership;
  Option.iter failwith (List.find_map E.churn_verdict membership);
  (* 3. Hedging's p99 effect under gray failure. *)
  Printf.printf "\n== fd: hedged requests under gray failure ==\n";
  Printf.printf "%s\n" (C.fd_header ());
  let gray = C.scenario_of_label ~n ~horizon:h "gray" in
  let hedging =
    List.map
      (fun hedge -> (hedge, run_one ~det:(Fixed E.fd_timeout) ~hedge gray))
      [ false; true ]
  in
  print_checked (List.map snd hedging);
  write_json
    ~sweep:(List.map (fun (label, r) -> sweep_json ~scenario:label r) sweep)
    ~membership:(List.map membership_json membership)
    ~hedging:(List.map (fun (hedge, r) -> hedge_json ~hedge r) hedging);
  Printf.printf "\n  wrote BENCH_fd.json (seed %d)\n" E.fd_seed
