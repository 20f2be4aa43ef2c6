(* quorumctl: command-line interface to the quorum-system library.

   Subcommands:
     info <spec>        structural summary (sizes, quorum count)
     fp <spec>          failure probability over a p sweep
     load <spec>        LP-optimal system load and witnessing strategy
     quorums <spec>     list the minimal quorums
     pick <spec>        sample quorums with the selection strategy
     simulate <spec>    run the mutual-exclusion simulation
     chaos <spec>       fault-scenario sweep (loss, partitions, churn...)
     churn              availability under sustained churn: static vs
                        dynamic membership (resize / timed quorums /
                        detector-driven views)
     fd                 failure-detector health under the fd stress
                        scenarios: summary + per-observer detection
                        latency and false positives
     metrics <spec>     chaos run -> metrics registry dump
                        (table/jsonl/csv/prometheus)
     trace <spec>       chaos run -> causal event trace + causality check
     report <spec>      chaos run -> markdown dashboard (latency breakdown,
                        consistency audit, trace health, engine profile)
     profile <spec>     chaos run -> engine self-profile (wall time and
                        allocations by subsystem)
     throughput         sessioned-store capacity: flat majority vs h-triang
                        vs sharded h-grid at one n, closed- or open-loop
     list               the catalogue of system specs

   Diagnostics convention (see the DIAGNOSTICS man section): "error:"
   lines are fatal and exit non-zero, "warning:" lines never change
   the exit code.

   Specs are Registry specs, e.g. "htriang(15)", "htgrid(4x6)",
   "majority(15)", "cwlog(29)". *)

open Cmdliner

let spec_arg =
  let doc = "System spec, e.g. htriang(15), htgrid(4x4), majority(15)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)

(* Registry specs plus the Byzantine constructions:
   masking(n,f) and boost(k,<spec>). *)
let build_extended spec =
  match Core.Registry.parse_spec spec with
  | Ok ("masking", [ n; f ]) ->
      (try
         Ok
           (Byzantine.Masking.majority_masking ~n:(int_of_string n)
              ~f:(int_of_string f))
       with Invalid_argument m | Failure m -> Error m)
  | Ok ("boost", k :: rest) ->
      let inner = String.concat "," rest in
      (match Core.Registry.build inner with
      | Ok base ->
          (try Ok (Byzantine.Masking.boost ~k:(int_of_string k) base)
           with Invalid_argument m | Failure m -> Error m)
      | Error m -> Error m)
  | Ok _ -> Core.Registry.build spec
  | Error m -> Error m

let with_system spec f =
  match build_extended spec with
  | Ok system ->
      f system;
      0
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

(* Every "error:" line must come with a non-zero exit: commands below
   go through [die] (or [with_system]) instead of raising entry points,
   so scripts can trust the exit code. *)
let die msg =
  Printf.eprintf "error: %s\n" msg;
  exit 1

(* Advisory diagnostics: always stderr, always the "warning:" prefix,
   never an exit-code change (the DIAGNOSTICS contract).  Route every
   warning through here so the spelling cannot drift. *)
let warn fmt = Printf.eprintf ("warning: " ^^ fmt ^^ "\n")

(* Result-typed entry points render uniformly through here (same
   contract as the bench harness's Util.ok_or_die). *)
let ok_or_die = function Ok v -> v | Error msg -> die msg

let quorums_or_die system = ok_or_die (Quorum.System.quorums system)

(* --- parallelism ---------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for the analysis pool (1 = no pool; the pool changes \
     only where the work runs, so results are identical for any value)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let with_jobs jobs f =
  if jobs <= 1 then f None
  else Exec.Pool.with_pool ~name:"quorumctl" ~jobs (fun pool -> f (Some pool))

(* "id:p,id:p,..." -> [(id, p); ...]; shared by fp and optimize. *)
let parse_hetero spec =
  let parse_entry entry =
    match String.split_on_char ':' entry with
    | [ id; p ] -> (
        match (int_of_string_opt (String.trim id), float_of_string_opt p) with
        | Some id, Some p -> Ok (id, p)
        | _ -> Error (Printf.sprintf "bad override %S: expected id:p" entry))
    | _ -> Error (Printf.sprintf "bad override %S: expected id:p" entry)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest -> (
        match parse_entry entry with
        | Ok e -> collect (e :: acc) rest
        | Error _ as err -> err)
  in
  collect [] (String.split_on_char ',' spec)

(* --- info --------------------------------------------------------- *)

let info_cmd =
  let run spec =
    with_system spec (fun system ->
        Printf.printf "%s: %d processes\n" system.Quorum.System.name
          system.Quorum.System.n;
        match system.Quorum.System.min_quorums with
        | Some _ ->
            let quorums = quorums_or_die system in
            let stats = Analysis.Metrics.of_quorums quorums in
            Printf.printf
              "%d minimal quorums; sizes min %d avg %.2f max %d\n"
              stats.count stats.min_size stats.avg_size stats.max_size;
            Printf.printf "intersection property: %b\ncoterie (antichain): %b\n"
              (Quorum.Coterie.all_intersect quorums)
              (Quorum.Coterie.is_antichain quorums)
        | None ->
            let stats =
              Analysis.Metrics.sampled ~trials:2000 (Quorum.Rng.create 1)
                system
            in
            Printf.printf
              "quorums not enumerable; sampled sizes min %d avg %.2f max %d\n"
              stats.min_size stats.avg_size stats.max_size)
  in
  let doc = "Structural summary of a quorum system." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ spec_arg)

(* --- fp ----------------------------------------------------------- *)

let fp_cmd =
  let ps_arg =
    let doc = "Comma-separated crash probabilities." in
    Arg.(
      value
      & opt (list float) [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ]
      & info [ "p" ] ~doc)
  in
  let trials_arg =
    let doc = "Monte-Carlo trials (large universes)." in
    Arg.(value & opt int 200_000 & info [ "trials" ] ~doc)
  in
  let hetero_arg =
    let doc =
      "Per-process overrides 'id:p,id:p,...' layered over the --p value \
       (heterogeneous model; uses the first --p entry as the base)."
    in
    Arg.(value & opt (some string) None & info [ "hetero" ] ~doc)
  in
  let run spec ps trials hetero jobs =
    with_system spec (fun system ->
        with_jobs jobs (fun pool ->
            match hetero with
            | Some overrides ->
                let overrides =
                  match parse_hetero overrides with
                  | Ok o -> o
                  | Error msg -> die msg
                in
                let base = List.hd ps in
                let p_of i =
                  match List.assoc_opt i overrides with
                  | Some p -> p
                  | None -> base
                in
                let fp =
                  if system.Quorum.System.n <= 24 then
                    Analysis.Failure.exact_hetero ?pool system ~p_of
                  else
                    (Analysis.Failure.monte_carlo_hetero ?pool ~trials
                       (Quorum.Rng.create 0) system ~p_of)
                      .mean
                in
                Printf.printf "%s, base p = %.3f with %d overrides: F = %.6f\n"
                  system.Quorum.System.name base (List.length overrides) fp
            | None ->
                let exact = system.Quorum.System.n <= 26 in
                Printf.printf "%s (%s)\n" system.Quorum.System.name
                  (if exact then "exact enumeration" else "Monte Carlo");
                (* One exact polynomial serves every p. *)
                let poly = lazy (Analysis.Failure.exact_poly ?pool system) in
                List.iter
                  (fun p ->
                    let fp =
                      if exact then
                        Quorum.Failure_poly.eval (Lazy.force poly) ~p
                      else
                        Analysis.Failure.failure_probability ?pool
                          ~mc_trials:trials system ~p
                    in
                    Printf.printf "  F(%.3f) = %.6f\n" p fp)
                  ps))
  in
  let doc = "Failure probability over a sweep of crash probabilities." in
  Cmd.v (Cmd.info "fp" ~doc)
    Term.(const run $ spec_arg $ ps_arg $ trials_arg $ hetero_arg $ jobs_arg)

(* --- load ---------------------------------------------------------- *)

let load_cmd =
  let run spec =
    with_system spec (fun system ->
        let quorums = quorums_or_die system in
        let r =
          Analysis.Load.optimal_of_quorums ~n:system.Quorum.System.n quorums
        in
        let cn, inv = Analysis.Load.lower_bounds system in
        Printf.printf "%s\n" system.Quorum.System.name;
        Printf.printf "LP-optimal load: %.4f\n" r.load;
        Printf.printf "lower bounds (Prop. 3.3): c/n = %.4f, 1/c = %.4f\n" cn
          inv;
        Printf.printf "optimal strategy uses %d quorums, avg size %.2f\n"
          (Array.length r.strategy.Quorum.Strategy.quorums)
          (Quorum.Strategy.average_quorum_size r.strategy))
  in
  let doc = "Solve the system-load LP (Definition 3.4)." in
  Cmd.v (Cmd.info "load" ~doc) Term.(const run $ spec_arg)

(* --- quorums -------------------------------------------------------- *)

let quorums_cmd =
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Max quorums to print.")
  in
  let run spec limit =
    with_system spec (fun system ->
        let quorums = quorums_or_die system in
        Printf.printf "%d minimal quorums%s\n" (List.length quorums)
          (if List.length quorums > limit then
             Printf.sprintf " (showing %d)" limit
           else "");
        List.iteri
          (fun i q ->
            if i < limit then
              Printf.printf "  %s\n"
                (String.concat ","
                   (List.map string_of_int (Quorum.Bitset.to_list q))))
          quorums)
  in
  let doc = "Enumerate the minimal quorums." in
  Cmd.v (Cmd.info "quorums" ~doc) Term.(const run $ spec_arg $ limit_arg)

(* --- pick ----------------------------------------------------------- *)

let pick_cmd =
  let count_arg =
    Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of samples.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"RNG seed.") in
  let dead_arg =
    Arg.(
      value & opt (list int) [] & info [ "dead" ] ~doc:"Crashed process ids.")
  in
  let run spec count seed dead =
    with_system spec (fun system ->
        let rng = Quorum.Rng.create seed in
        let live = Quorum.Bitset.universe system.Quorum.System.n in
        List.iter (Quorum.Bitset.remove live) dead;
        for _ = 1 to count do
          match system.Quorum.System.select rng ~live with
          | Some q ->
              Printf.printf "%s\n"
                (String.concat ","
                   (List.map string_of_int (Quorum.Bitset.to_list q)))
          | None -> Printf.printf "(no live quorum)\n"
        done)
  in
  let doc = "Sample quorums with the live-aware selection strategy." in
  Cmd.v
    (Cmd.info "pick" ~doc)
    Term.(const run $ spec_arg $ count_arg $ seed_arg $ dead_arg)

(* --- simulate -------------------------------------------------------- *)

let simulate_cmd =
  let requests_arg =
    Arg.(value & opt int 50 & info [ "requests" ] ~doc:"Lock requests.")
  in
  let fault_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-p" ] ~doc:"Transient per-process downtime fraction.")
  in
  let run spec requests fault_p =
    with_system spec (fun system ->
        let engine =
          Sim.Engine.create ~seed:1 ~nodes:system.Quorum.System.n ()
        in
        let mx =
          Protocols.Mutex.of_config engine
            ~config:Protocols.Client_config.(default |> with_timeout 1000.0)
            ~system ~cs_duration:1.0 ()
        in
        if fault_p > 0.0 then
          Sim.Failure_injector.iid_faults engine
            ~rng:(Quorum.Rng.create 2) ~p:fault_p ~mean_downtime:10.0
            ~horizon:(float_of_int requests *. 2.0);
        Protocols.Workload.staggered_requests engine ~every:0.5
          ~count:requests (fun ~client ->
            Protocols.Mutex.request mx ~node:client);
        Sim.Engine.run engine;
        Printf.printf
          "entries %d/%d, violations %d, unavailable %d, msgs/entry %.1f\n"
          (Protocols.Mutex.entries mx)
          requests
          (Protocols.Mutex.violations mx)
          (Protocols.Mutex.unavailable mx)
          (float_of_int (Sim.Engine.messages_sent engine)
          /. float_of_int (max 1 (Protocols.Mutex.entries mx)));
        Printf.printf "wait: %s\n"
          (Obs.Metrics.summary (Protocols.Mutex.acquire_latency mx)))
  in
  let doc = "Run the quorum mutual-exclusion simulation." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(const run $ spec_arg $ requests_arg $ fault_arg)

(* --- chaos-run flags --------------------------------------------------- *)

(* chaos, metrics, trace, report and profile run Experiment cells, the
   ones the bench runs, and share these flags; every default is an
   Experiment pin, so a default invocation replays the bench's rows. *)

module E = Protocols.Experiment
module C = Protocols.Chaos
module T = Protocols.Throughput

let protocol_arg ~default =
  let protocols = List.map (fun p -> (E.protocol_name p, p)) E.protocols in
  Arg.(
    value
    & opt (enum protocols) default
    & info [ "protocol" ]
        ~doc:
          "Protocol to run: $(b,mutex), $(b,store), $(b,reconfig) (a \
           register switched to another system and back mid-run) or \
           $(b,throughput) (the sessioned store driven closed-loop).")

let seed_arg =
  let pins =
    String.concat ", "
      (List.map
         (fun p -> Printf.sprintf "%s %d" (E.protocol_name p) (E.seed p))
         E.protocols)
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ]
        ~doc:
          (Printf.sprintf
             "RNG seed (default: the protocol's pinned bench seed — %s; \
              same seed = same run, exactly)."
             pins))

(* The --seed of a sweep with one pinned seed (churn, fd, throughput). *)
let pinned_seed_arg pin =
  Arg.(
    value & opt int pin
    & info [ "seed" ]
        ~doc:
          "RNG seed (default: the pinned bench seed; same seed = same run, \
           exactly).")

let horizon_arg default =
  Arg.(
    value & opt float default
    & info [ "horizon" ] ~doc:"Workload horizon in simulated time units.")

let chaos_horizon_arg = horizon_arg (E.chaos_horizon ~fast:false)

let next_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "next" ]
        ~doc:
          "With --protocol reconfig: the system to switch to mid-run \
           (default: the spec itself).")

let check_next protocol next =
  if next <> None && protocol <> E.Reconfig then
    die "--next only applies to --protocol reconfig"

(* Fail on the first unsafe run, after every row has printed. *)
let die_unsafe verdicts = Option.iter die (List.find_map Fun.id verdicts)

(* --- chaos ------------------------------------------------------------ *)

let chaos_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ]
          ~doc:
            "Run one scenario (baseline, loss+burst, partition, churn-iid, \
             gray, restart, amnesia, amnesia-maj, churn, churn-amnesia, \
             churn-partition) instead of all of them.")
  in
  let rf_arg =
    Arg.(
      value
      & opt float E.store_read_fraction
      & info [ "read-fraction" ]
          ~docv:"FR"
          ~doc:
            "Read fraction of the store workload (with --protocol store).")
  in
  let run spec scenario horizon seed protocol next rf jobs =
    if horizon <= 0.0 then
      die (Printf.sprintf "--horizon must be positive (got %g)" horizon);
    if rf < 0.0 || rf > 1.0 then
      die (Printf.sprintf "--read-fraction %g not in [0,1]" rf);
    with_system spec (fun system ->
        check_next protocol next;
        (* Fail on a bad --next before any runs start. *)
        let next_spec = Option.value next ~default:spec in
        let next = ok_or_die (build_extended next_spec) in
        let n = E.universe (E.cell ~next protocol system) in
        let scenarios =
          match scenario with
          | None -> E.chaos_scenarios ~n ~horizon
          | Some label -> [ C.scenario_of_label ~n ~horizon label ]
        in
        (* One scenario per pool task; each task builds its own cell so
           no mutable state is shared across domains. *)
        let reports =
          with_jobs jobs (fun pool ->
              Exec.Pool.map ?pool
                (fun s ->
                  let system = ok_or_die (build_extended spec) in
                  let next = ok_or_die (build_extended next_spec) in
                  let cell = E.cell ~next ~read_fraction:rf protocol system in
                  (E.run ?seed cell s).E.report)
                scenarios)
        in
        Printf.printf "%s\n" (E.header protocol);
        List.iter (fun r -> Printf.printf "%s\n" (E.row r)) reports;
        die_unsafe (List.map E.verdict reports))
  in
  let doc =
    "Run the chaos harness (loss, bursts, partitions, churn, gray failures, \
     crash-restart and amnesia windows) against a quorum system."
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(
      const run $ spec_arg $ scenario_arg $ chaos_horizon_arg $ seed_arg
      $ protocol_arg ~default:E.Mutex
      $ next_arg $ rf_arg $ jobs_arg)

(* --- churn ------------------------------------------------------------ *)

let churn_cmd =
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("static", `Static); ("resize", `Resize); ("timed", `Timed);
               ("fd", `Fd); ("all", `All);
             ])
          `All
      & info [ "mode" ]
          ~doc:
            "Membership mode: $(b,static) (t=0 placement forever), \
             $(b,resize) (replace/grow/shrink controller), $(b,timed) \
             (resize + timed-quorum leases), $(b,fd) (resize with the \
             controller's liveness opinion taken from the members' \
             quorum-merged failure-detector views) or $(b,all).")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.18
      & info [ "rate" ]
          ~doc:
            "Churn rate: leave events per time unit (expected \
             simultaneously-down population is rate * downtime).")
  in
  let downtime_arg =
    Arg.(
      value & opt float E.churn_downtime
      & info [ "downtime" ] ~doc:"Mean downtime of a churned-out process.")
  in
  let universe_arg =
    Arg.(
      value & opt int E.churn_universe
      & info [ "universe" ] ~doc:"Number of processes in the universe.")
  in
  let rows_arg =
    Arg.(
      value & opt int E.churn_rows
      & info [ "rows" ] ~doc:"Initial h-triang rows (n = rows(rows+1)/2).")
  in
  let period_arg =
    Arg.(
      value & opt float E.churn_period
      & info [ "period" ] ~doc:"Membership controller tick period.")
  in
  let lease_arg =
    Arg.(
      value & opt float E.churn_lease
      & info [ "lease" ] ~doc:"Lease duration for $(b,timed) mode.")
  in
  let run mode rate downtime universe rows horizon seed period lease =
    if rate < 0.0 || downtime <= 0.0 || horizon <= 0.0 then
      die "rate must be >= 0, downtime and horizon positive";
    let n = rows * (rows + 1) / 2 in
    if n > universe then die "universe smaller than the initial triangle";
    let scenario = E.churn_scenario ~downtime ~horizon rate in
    let modes =
      match mode with
      | `Static -> [ C.Static ]
      | `Resize -> [ C.Resize ]
      | `Timed -> [ C.Timed ]
      | `Fd -> [ C.Fd ]
      | `All -> [ C.Static; C.Resize; C.Timed; C.Fd ]
    in
    Printf.printf "%s\n" (C.churn_header ());
    let reports =
      List.map
        (fun mode ->
          let r, _ =
            C.run_churn_h ~seed ~rate:E.churn_op_rate
              ~op_timeout:E.churn_op_timeout ~rows ~period ~lease ~mode
              ~universe scenario
          in
          Printf.printf "%s\n" (C.churn_row r);
          r)
        modes
    in
    die_unsafe (List.map E.churn_verdict reports);
    0
  in
  let doc =
    "Availability under sustained Poisson join/leave churn: a \
     dynamic-membership h-triang register (replace/grow/shrink controller, \
     optionally timed-quorum leases) against the static baseline."
  in
  Cmd.v
    (Cmd.info "churn" ~doc)
    Term.(
      const run $ mode_arg $ rate_arg $ downtime_arg $ universe_arg
      $ rows_arg
      $ horizon_arg (E.churn_horizon ~fast:false)
      $ pinned_seed_arg E.churn_seed
      $ period_arg $ lease_arg)

(* --- fd --------------------------------------------------------------- *)

let fd_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ]
          ~doc:
            "Run one scenario instead of the default set (churn-iid plus \
             the fd stress family: gray-flap, asym-link, suspect-burst).")
  in
  let timeout_arg =
    Arg.(
      value & opt float E.fd_timeout
      & info [ "timeout" ]
          ~doc:
            "Fixed-timeout detection horizon (also the accrual warm-up \
             fallback).")
  in
  let phi_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "phi" ]
          ~doc:
            "Phi-accrual suspicion threshold; omitting it selects the \
             fixed-timeout detector.")
  in
  let hedge_arg =
    Arg.(
      value & flag
      & info [ "hedge" ]
          ~doc:
            "Hedge straggling quorum RPCs to a backup replica after the \
             per-peer latency quantile.")
  in
  let per_node_arg =
    Arg.(
      value & flag
      & info [ "per-node" ]
          ~doc:
            "Also print each observer's detection-latency / false-positive \
             totals (against the engine oracle).")
  in
  let run spec scenario horizon seed timeout phi hedge per_node =
    if horizon <= 0.0 then die "--horizon must be positive";
    with_system spec (fun system ->
        let n = system.Quorum.System.n in
        let scenarios =
          match scenario with
          | None ->
              C.scenario_of_label ~n ~horizon "churn-iid"
              :: C.fd_family ~n ~horizon
          | Some label -> [ C.scenario_of_label ~n ~horizon label ]
        in
        Printf.printf "%s\n" (C.fd_header ());
        let reports =
          List.map
            (fun s ->
              let r =
                C.run_fd ~seed ~fd_timeout:timeout ?accrual:phi ~hedge
                  ~read_system:system ~write_system:system
                  ~name:system.Quorum.System.name s
              in
              Printf.printf "%s\n" (C.fd_row r);
              if per_node then begin
                Printf.printf "  %4s %6s %7s %7s %5s %6s %5s\n" "node"
                  "detect" "meanlat" "maxlat" "fpos" "missed" "flips";
                Array.iteri
                  (fun node (st : Sim.Failure_detector.stats) ->
                    Printf.printf "  %4d %6d %7.2f %7.2f %5d %6d %5d\n" node
                      st.detections st.mean_detect st.max_detect
                      st.false_positives st.missed st.transitions)
                  r.C.per_node
              end;
              r)
            scenarios
        in
        die_unsafe (List.map E.fd_verdict reports))
  in
  let doc =
    "Failure-detector health under the fd stress scenarios (gray flap, \
     asymmetric links, false-suspicion bursts, churn): detection latency, \
     false positives and missed detections against the engine oracle, \
     plus the client-visible cost (hedges, degraded writes, p99)."
  in
  Cmd.v (Cmd.info "fd" ~doc)
    Term.(
      const run $ spec_arg $ scenario_arg
      $ horizon_arg (E.fd_horizon ~fast:false)
      $ pinned_seed_arg E.fd_seed
      $ timeout_arg $ phi_arg $ hedge_arg $ per_node_arg)

(* --- metrics / trace --------------------------------------------------- *)

(* Both commands drive one chaos scenario with an externally owned
   Obs.t so the registry / trace survive the run and can be dumped. *)

let obs_scenario_arg =
  Arg.(
    value & opt string "loss+burst"
    & info [ "scenario" ]
        ~doc:
          "Chaos scenario to run: baseline, loss+burst, partition, \
           churn-iid, gray, restart, amnesia, amnesia-maj, churn, \
           churn-amnesia or churn-partition.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~doc:"Write the dump to this file instead of stdout.")

(* One run of the protocol's cell on the system, recorded into [obs]. *)
let run_cell ~obs ~system ~scenario ~horizon ~seed protocol =
  let cell = E.cell protocol system in
  let s = C.scenario_of_label ~n:(E.universe cell) ~horizon scenario in
  ignore (E.run ?seed ~obs cell s)

let emit_to out emit =
  match out with
  | None -> emit stdout
  | Some path ->
      Obs.Sink.with_file path emit;
      Printf.eprintf "wrote %s\n" path

let metrics_cmd =
  let format_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("table", `Table); ("jsonl", `Jsonl); ("csv", `Csv);
               ("prometheus", `Prometheus);
             ])
          `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) (human-readable registry dump, the \
             default), $(b,jsonl) (one JSON object per sample), $(b,csv), \
             or $(b,prometheus) (text exposition format 0.0.4: counters as \
             *_total, histograms as summaries with 0.5/0.9/0.99 \
             quantiles).")
  in
  let run spec scenario horizon seed protocol format out =
    with_system spec (fun system ->
        let obs = Obs.create () in
        run_cell ~obs ~system ~scenario ~horizon ~seed protocol;
        let m = Obs.metrics obs in
        emit_to out (fun oc ->
            match format with
            | `Table -> output_string oc (Obs.Metrics.render m)
            | `Jsonl -> Obs.Sink.metrics_jsonl oc m
            | `Csv -> Obs.Sink.metrics_csv oc m
            | `Prometheus -> Obs.Sink.metrics_prometheus oc m))
  in
  let doc =
    "Run one chaos scenario and dump the full metrics registry (message, \
     rpc, failure-detector and protocol instruments)."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const run $ spec_arg $ obs_scenario_arg $ chaos_horizon_arg $ seed_arg
      $ protocol_arg ~default:E.Mutex
      $ format_arg $ out_arg)

let trace_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("csv", `Csv) ]) `Jsonl
      & info [ "format" ] ~doc:"Output format: $(b,jsonl) or $(b,csv).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ]
          ~doc:"Trace ring capacity (events); oldest events are evicted first.")
  in
  let run spec scenario horizon seed protocol format capacity out =
    match build_extended spec with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok system ->
        let obs = Obs.create ~trace_capacity:capacity () in
        run_cell ~obs ~system ~scenario ~horizon ~seed protocol;
        let tr = Obs.trace obs in
        emit_to out (fun oc ->
            match format with
            | `Jsonl -> Obs.Sink.trace_jsonl oc tr
            | `Csv -> Obs.Sink.trace_csv oc tr);
        Printf.eprintf "trace: %d events recorded, %d buffered, %d evicted\n"
          (Obs.Trace.recorded tr) (Obs.Trace.length tr) (Obs.Trace.dropped tr);
        (* Loud but exit-code-neutral: an overwritten ring is a degraded
           dump, not a failed run. *)
        if Obs.Trace.dropped tr > 0 then
          warn
            "the ring overwrote %d events (metered as obs.trace.dropped); \
             causal chains through the evicted prefix are broken — re-run \
             with a larger --capacity for a complete trace"
            (Obs.Trace.dropped tr);
        (match Obs.Trace.causality_violations tr with
        | [] ->
            Printf.eprintf
              "causality: ok (every deliver links to a recorded send)\n";
            0
        | vs when Obs.Trace.dropped tr > 0 ->
            (* Violations on an overwritten ring are the eviction's
               doing, not the run's: advisory, exit-neutral. *)
            warn
              "%d deliver(s) without a matching send (expected: their \
               sends were evicted by the ring)"
              (List.length vs);
            0
        | vs ->
            Printf.eprintf
              "error: causality: %d deliver(s) without a matching send\n"
              (List.length vs);
            1)
  in
  let doc =
    "Run one chaos scenario, dump the causal event trace \
     (send/deliver/drop/crash/recover), and verify send->deliver causality \
     (non-zero exit only on a violation with an intact ring; violations \
     explained by ring eviction are warnings)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ spec_arg $ obs_scenario_arg $ chaos_horizon_arg $ seed_arg
      $ protocol_arg ~default:E.Mutex
      $ format_arg $ capacity_arg $ out_arg)

(* --- report ----------------------------------------------------------- *)

let report_cmd =
  let capacity_arg =
    Arg.(
      value
      & opt int (1 lsl 19)
      & info [ "capacity" ]
          ~doc:
            "Trace ring capacity (events); the default is large enough \
             that standard runs evict nothing.")
  in
  let run spec scenario horizon seed protocol next capacity out =
    with_system spec (fun system ->
        check_next protocol next;
        let next = Option.map (fun sp -> ok_or_die (build_extended sp)) next in
        let r =
          Protocols.Run_report.run ?seed ~horizon ~trace_capacity:capacity
            ?next ~protocol ~system ~scenario ()
        in
        emit_to out (fun oc ->
            output_string oc (Protocols.Run_report.to_markdown r)))
  in
  let doc =
    "Run one fully-observed chaos scenario and render a markdown dashboard: \
     chaos summary, per-operation latency percentiles with critical-path \
     breakdown (network / fsync / queueing / retransmit), the \
     consistency-audit verdict with witnessing evidence, trace-ring health \
     and the metrics registry."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ spec_arg $ obs_scenario_arg $ chaos_horizon_arg $ seed_arg
      $ protocol_arg ~default:E.Store
      $ next_arg $ capacity_arg $ out_arg)

(* --- profile ---------------------------------------------------------- *)

let profile_cmd =
  let keep_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "span-sample" ] ~docv:"K"
          ~doc:
            "Keep 1 in $(docv) root spans (deterministic, seed-keyed; \
             descendants follow their root, so surviving trees are \
             complete).  0 drops all spans, 1 keeps all.  Sampling is \
             behaviorally inert: the simulated run is unchanged.")
  in
  let run spec scenario horizon seed protocol keep out =
    with_system spec (fun system ->
        let obs =
          Obs.create ~trace_capacity:(1 lsl 19) ~profile:true
            ?span_keep_1_in:keep ()
        in
        run_cell ~obs ~system ~scenario ~horizon ~seed protocol;
        let p = Obs.prof obs in
        let r = Obs.Prof.report p in
        emit_to out (fun oc ->
            Printf.fprintf oc
              "Engine self-profile: chaos %s on %s, seed %d, horizon %g\n\
               Real wall time and minor-heap allocation of the simulator \
               itself,\nby subsystem; shares are of the probed total.\n\n"
              scenario system.Quorum.System.name
              (Option.value seed ~default:(E.seed protocol))
              horizon;
            output_string oc (Obs.Prof.render p));
        if r.Obs.Prof.truncated > 0 || r.Obs.Prof.unbalanced > 0 then
          warn
            "probe stack anomalies (%d truncated, %d unbalanced) — \
             attribution is approximate"
            r.Obs.Prof.truncated r.Obs.Prof.unbalanced)
  in
  let doc =
    "Run one chaos scenario with the engine self-profiler on and print \
     where the simulator's real wall time and allocations went \
     (dispatch, rpc, durable log, trace/metrics/span recording).  \
     Profiling is behaviorally inert — the simulated results equal an \
     unprofiled run's — so the breakdown describes the run the other \
     subcommands replay.  For events/sec and allocations/event across \
     observability configurations, see the $(b,bench engine) target."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ spec_arg $ obs_scenario_arg $ chaos_horizon_arg $ seed_arg
      $ protocol_arg ~default:E.Mutex
      $ keep_arg $ out_arg)

(* --- throughput ------------------------------------------------------- *)

let throughput_cmd =
  let n_arg =
    Arg.(
      value & opt int E.open_n
      & info [ "n" ] ~docv:"N" ~doc:"Universe size (one session per node).")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ]
          ~doc:"Shard count for the sharded h-grid arm (default n/4).")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("closed", `Closed); ("open", `Open) ]) `Closed
      & info [ "mode" ]
          ~doc:
            "$(b,closed) keeps every session's pipeline window full \
             (measures capacity); $(b,open) offers Poisson arrivals at \
             $(b,--rate) regardless of capacity (measures queue growth and \
             shedding).")
  in
  let rate_arg =
    Arg.(
      value & opt float E.open_rate
      & info [ "rate" ] ~doc:"Open-loop offered ops per time unit.")
  in
  let window_arg =
    Arg.(
      value & opt int E.window
      & info [ "window" ] ~doc:"In-flight ops per session (pipelining).")
  in
  let batch_arg =
    Arg.(
      value & opt int E.batch
      & info [ "batch" ]
          ~doc:
            "Requests coalesced per Batch_req envelope (1 = unbatched wire \
             messages).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt float (E.throughput_horizon ~fast:false)
      & info [ "horizon" ] ~doc:"Load window in simulated time units.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ]
          ~doc:
            "Chaos scenario to run under (as in $(b,quorumctl chaos)); the \
             default is the bench's calm network with fsync latency, \
             labelled by mode.")
  in
  let run n shards mode rate window batch horizon seed scenario =
    if n < 3 then die "throughput: need n >= 3";
    if horizon <= 0.0 then die "throughput: --horizon must be positive";
    let mode = match mode with `Closed -> T.Closed | `Open -> T.Open rate in
    let s =
      match scenario with
      | None -> E.throughput_scenario ~horizon (T.mode_label mode)
      | Some label -> C.scenario_of_label ~n ~horizon label
    in
    let arms = ok_or_die (T.arms ?shards ~n ()) in
    Printf.printf "%s\n" (T.header ());
    let reports =
      List.map
        (fun arm ->
          let r =
            (E.run ~seed (E.Throughput_cell { arm; mode; window; batch }) s)
              .E.report
          in
          Printf.printf "%s\n" (E.row r);
          r)
        arms
    in
    die_unsafe (List.map E.verdict reports);
    0
  in
  let doc =
    "Sessioned-store throughput at one universe size: flat majority vs \
     h-triang vs sharded h-grid, with pipelined sessions, request batching \
     and per-request service cost — the flat-vs-hierarchical capacity \
     comparison of bench throughput, one n at a time."
  in
  Cmd.v (Cmd.info "throughput" ~doc)
    Term.(
      const run $ n_arg $ shards_arg $ mode_arg $ rate_arg $ window_arg
      $ batch_arg $ horizon_arg
      $ pinned_seed_arg (E.seed E.Throughput)
      $ scenario_arg)

(* --- nd --------------------------------------------------------------- *)

let nd_cmd =
  let run spec =
    with_system spec (fun system ->
        if system.Quorum.System.n > 26 then
          Printf.printf "%s: universe too large for the exact check\n"
            system.Quorum.System.name
        else begin
          let nd =
            Quorum.Coterie.is_non_dominated ~n:system.Quorum.System.n
              (Quorum.System.avail_mask_exn system)
          in
          Printf.printf "%s: %s\n" system.Quorum.System.name
            (if nd then "non-dominated (F(1/2) = 1/2 exactly)"
             else "dominated (a better coterie exists)")
        end)
  in
  let doc = "Exact non-domination check (Garcia-Molina & Barbara)." in
  Cmd.v (Cmd.info "nd" ~doc) Term.(const run $ spec_arg)

(* --- masking ----------------------------------------------------------- *)

let masking_cmd =
  let run spec =
    with_system spec (fun system ->
        match system.Quorum.System.min_quorums with
        | None ->
            Printf.printf "%s: quorums not enumerable\n"
              system.Quorum.System.name
        | Some _ ->
            let quorums = quorums_or_die system in
            let k = Byzantine.Masking.min_pairwise_intersection quorums in
            Printf.printf
              "%s: min pairwise intersection %d -> masks f = %d Byzantine, \
               disseminates to f = %d\n"
              system.Quorum.System.name k ((k - 1) / 2) (k - 1))
  in
  let doc = "Byzantine intersection level of the coterie." in
  Cmd.v (Cmd.info "masking" ~doc) Term.(const run $ spec_arg)

(* --- optimize -------------------------------------------------------- *)

let optimize_cmd =
  let rf_arg =
    let doc = "Fraction of operations that are reads, in [0,1]." in
    Arg.(value & opt float 0.5 & info [ "read-fraction"; "r" ] ~docv:"FR" ~doc)
  in
  let f_arg =
    let doc =
      "Resilience target: every candidate must survive every crash set of \
       this size."
    in
    Arg.(value & opt int 1 & info [ "f"; "resilience" ] ~docv:"F" ~doc)
  in
  let n_arg =
    let doc = "Universe size to sweep the catalogue over." in
    Arg.(value & opt int 15 & info [ "n" ] ~docv:"N" ~doc)
  in
  let p_arg =
    let doc = "Iid crash probability (the base under --hetero)." in
    Arg.(value & opt float 0.1 & info [ "p" ] ~docv:"P" ~doc)
  in
  let hetero_arg =
    let doc =
      "Per-process overrides 'id:p,id:p,...' layered over --p \
       (heterogeneous failure model)."
    in
    Arg.(value & opt (some string) None & info [ "hetero" ] ~doc)
  in
  let topology_arg =
    let doc =
      "Latency model pricing quorum round trips: $(b,none), $(b,ring) \
       (unit-radius circle) or $(b,line) (unit-spaced chain)."
    in
    Arg.(value & opt string "none" & info [ "topology" ] ~docv:"MODEL" ~doc)
  in
  let trials_arg =
    let doc = "Sampling trials (Monte-Carlo / empirical strategies)." in
    Arg.(value & opt int 50_000 & info [ "trials" ] ~doc)
  in
  let seed_arg =
    let doc = "Base RNG seed (per-candidate streams derive from it)." in
    Arg.(value & opt int 47 & info [ "seed" ] ~doc)
  in
  let run rf f n p hetero topology trials seed jobs =
    let failures =
      match hetero with
      | None -> Ok (Analysis.Workload.Iid p)
      | Some overrides -> (
          match parse_hetero overrides with
          | Error _ as e -> e
          | Ok overrides -> Analysis.Workload.hetero ~n ~base:p overrides)
    in
    let latency =
      match topology with
      | "none" -> Ok Analysis.Workload.No_latency
      | "ring" ->
          Ok (Analysis.Workload.Topology (Sim.Topology.ring ~n ~radius:1.0))
      | "line" ->
          Ok (Analysis.Workload.Topology (Sim.Topology.line ~n ~spacing:1.0))
      | other ->
          Error
            (Printf.sprintf "unknown topology %S (none, ring or line)" other)
    in
    match (failures, latency) with
    | Error e, _ | _, Error e -> die e
    | Ok failures, Ok latency -> (
        match
          Analysis.Workload.make ~failures ~latency ~resilience:f
            ~read_fraction:rf ()
        with
        | Error e -> die e
        | Ok workload ->
            with_jobs jobs (fun pool ->
                match
                  Analysis.Optimizer.sweep ?pool ~trials ~seed ~workload ~n ()
                with
                | Error e -> die e
                | Ok report ->
                    print_string (Analysis.Optimizer.render report));
            0)
  in
  let doc =
    "Sweep the catalogue for the workload and print the Pareto frontier \
     over (load, availability, quorum RTT, quorum size), with an \
     explanation for every candidate left off it."
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ rf_arg $ f_arg $ n_arg $ p_arg $ hetero_arg $ topology_arg
      $ trials_arg $ seed_arg $ jobs_arg)

(* --- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Core.Registry.entry) ->
        Printf.printf "%-15s %-16s %-18s %s\n" e.family e.arity e.example
          e.doc)
      Core.Registry.catalogue;
    0
  in
  let doc =
    "List the catalogue of system families (family, arguments, example, \
     description)."
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* The SPECS manual section is generated from the registry catalogue,
   so the CLI help can never drift from what actually builds. *)
let specs_man =
  `S "SYSTEM SPECS"
  :: `P
       "Every subcommand takes a system spec of the form \
        $(i,family)($(i,args)). Known families (also: $(b,quorumctl \
        list)):"
  :: List.map
       (fun (e : Core.Registry.entry) ->
         `I
           ( Printf.sprintf "$(b,%s)(%s)" e.family e.arity,
             Printf.sprintf "%s — e.g. %s" e.doc e.example ))
       Core.Registry.catalogue
  @ [
      `P
        "The CLI additionally accepts the Byzantine wrappers \
         $(b,masking)(n,f) and $(b,boost)(k,spec).";
      `S "DIAGNOSTICS";
      `P
        "Every subcommand shares one stderr convention: a line starting \
         with $(b,error:) is fatal and the command exits non-zero; a line \
         starting with $(b,warning:) is advisory and never affects the \
         exit code. Informational notes (e.g. \"wrote FILE\") carry no \
         prefix.";
      `P
        "$(b,quorumctl trace) applies the convention to its causality \
         check: delivers without a recorded send exit non-zero only when \
         the trace ring is intact; when the ring evicted events they are \
         the expected consequence of the eviction and are reported as a \
         warning.";
    ]

let () =
  let doc = "Inspect and analyze the quorum systems of the reproduction." in
  let main =
    Cmd.group
      (Cmd.info "quorumctl" ~version:"1.0" ~doc ~man:specs_man)
      [
        info_cmd; fp_cmd; load_cmd; quorums_cmd; pick_cmd; simulate_cmd;
        chaos_cmd; churn_cmd; fd_cmd; metrics_cmd; trace_cmd; report_cmd;
        profile_cmd; throughput_cmd; nd_cmd; masking_cmd; optimize_cmd;
        list_cmd;
      ]
  in
  (* Cmdliner renders one-character names as short options only; accept
     the natural "--f 1" / "--n 15" / "--p 0.1" spellings too. *)
  let argv =
    Array.map
      (fun a ->
        match a with
        | "--f" | "--n" | "--p" | "--r" -> String.sub a 1 2
        | _ -> a)
      Sys.argv
  in
  (* Out-of-range flag values surface as Invalid_argument from the
     library; they get the same one-line error and exit 1 as any other
     bad input, wherever they are raised. *)
  match Cmd.eval' ~catch:false ~argv main with
  | code -> exit code
  | exception Invalid_argument msg -> die msg
