(* Latency breakdown benchmark: one fully-traced pinned-seed chaos run
   per protocol, profiled with Obs.Trace_analysis, written to
   BENCH_latency.json.

   Each profiled operation's critical-path breakdown (network, fsync,
   queueing, retransmit) partitions its end-to-end latency exactly, so
   the per-class component sums in the JSON add up to the summed
   latency — a consumer can recompute and check.  Seeds and horizon are
   bench chaos's (Protocols.Experiment): a JSON row names the exact run
   that produced it. *)

module E = Protocols.Experiment
module R = Protocols.Run_report
module Ta = Obs.Trace_analysis

let horizon () = E.chaos_horizon ~fast:!Util.fast

(* Scenarios chosen so every breakdown component is exercised: baseline
   (pure network), loss+burst (retransmit), restart (fsync > 0 plus
   crash windows). *)
let scenarios = [ "baseline"; "loss+burst"; "restart" ]

let breakdown_json (b : Ta.breakdown) =
  Printf.sprintf
    "{\"network\": %.6f, \"fsync\": %.6f, \"queueing\": %.6f, \
     \"retransmit\": %.6f}"
    b.Ta.network b.Ta.fsync b.Ta.queueing b.Ta.retransmit

let op_json name (ps : Ta.op_profile list) =
  let a = Ta.aggregate ps in
  let latency_sum =
    List.fold_left (fun acc (p : Ta.op_profile) -> acc +. p.Ta.latency) 0.0 ps
  in
  Printf.sprintf
    "{\"op\": %S, \"count\": %d, \"complete\": %d, \"mean\": %.6f, \
     \"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f, \"max\": %.6f, \
     \"latency_sum\": %.6f, \"breakdown_sum\": %s}"
    name a.Ta.count a.Ta.complete a.Ta.mean a.Ta.p50 a.Ta.p90 a.Ta.p99
    a.Ta.max_v latency_sum
    (breakdown_json a.Ta.total)

let run_one ~protocol ~system ~next ~scenario =
  let r =
    R.run ~horizon:(horizon ()) ?next ~protocol ~system ~scenario ()
  in
  let ops =
    List.map (fun (name, ps) -> op_json name ps) (Ta.by_name r.R.profiles)
  in
  let audit =
    match r.R.audit with
    | None -> "null"
    | Some a -> Printf.sprintf "%S" (Ta.verdict a)
  in
  Printf.sprintf
    "{\"protocol\": %S, \"system\": %S, \"scenario\": %S, \"seed\": %d, \
     \"audit\": %s, \"ops\": [%s]}"
    (E.protocol_name protocol)
    r.R.system r.R.scenario r.R.seed audit (String.concat ", " ops)

let run () =
  Util.print_header "latency: critical-path breakdowns from traced runs";
  let grid =
    [
      (R.Mutex, "majority(15)", None);
      (R.Store, "htgrid(4x4)", None);
      (R.Reconfig, "htriang(15)", Some "htriang(15)");
    ]
  in
  let rows =
    List.concat_map
      (fun (protocol, spec, next_spec) ->
        let system = Util.system spec in
        let next = Option.map Util.system next_spec in
        List.map
          (fun scenario ->
            let row = run_one ~protocol ~system ~next ~scenario in
            Printf.printf "  %-8s %-14s %-11s done\n"
              (E.protocol_name protocol) spec scenario;
            row)
          scenarios)
      grid
  in
  let oc = open_out (Util.out_path "BENCH_latency.json") in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"latency\",\n\
    \  \"fast\": %b,\n\
    \  \"horizon\": %g,\n\
    \  \"runs\": [\n%s\n  ]\n\
     }\n"
    !Util.fast (horizon ())
    (String.concat ",\n" (List.map (fun r -> "    " ^ r) rows));
  close_out oc;
  Printf.printf "\n  wrote BENCH_latency.json (%d runs)\n" (List.length rows)
