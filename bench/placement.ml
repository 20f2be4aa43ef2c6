(* Latency/placement benchmark (extension): per-request RTT of each
   construction on datacenter-like topologies, with latency-optimal vs
   load-balancing quorum selection, and an end-to-end geo-distributed
   mutual-exclusion run. *)

module Topology = Sim.Topology
module Rng = Quorum.Rng

let three_clusters rng n =
  let a = (n + 2) / 3 in
  let b = (n - a + 1) / 2 in
  let c = n - a - b in
  Topology.clusters rng ~sizes:[ a; b; c ] ~spread:1.0 ~separation:10.0

(* Each spec's line is an independent computation (fresh system, fresh
   RNGs), so the sweeps run one spec per pool task under --jobs and
   print the collected lines in spec order. *)
let spec_lines specs line =
  List.iter print_string (Exec.Pool.map ?pool:(Util.pool ()) line specs)

let analysis () =
  Util.print_header
    "Placement (extension): quorum RTT on a 3-datacenter topology";
  Printf.printf
    "  (RTT = 2x distance to the farthest quorum member; clusters 10 apart,\n\
    \   members within 1; lower is better)\n";
  Printf.printf "  %-16s %-22s %-22s\n" "system" "latency-aware RTT"
    "load-balancing RTT";
  spec_lines
    [
      "majority(15)"; "hqs(5-3)"; "cwlog(14)"; "htgrid(4x4)"; "htriang(15)";
      "fpp(13)";
    ]
    (fun spec ->
      let system = Util.system spec in
      let rng = Rng.create 41 in
      let topology = three_clusters rng system.Quorum.System.n in
      let best = Analysis.Placement.mean_best_rtt system topology in
      let strat =
        Analysis.Placement.mean_strategy_rtt ~trials:3000 (Rng.create 42)
          system topology
      in
      Printf.sprintf "  %-16s %-22.2f %-22.2f\n" spec best strat);
  Printf.printf
    "\n  Ring topology (radius 10) for contrast - no locality to exploit:\n";
  spec_lines
    [ "majority(15)"; "cwlog(14)"; "htriang(15)" ]
    (fun spec ->
      let system = Util.system spec in
      let topology = Topology.ring ~n:system.Quorum.System.n ~radius:10.0 in
      Printf.sprintf "  %-16s best %-8.2f strategy %-8.2f\n" spec
        (Analysis.Placement.mean_best_rtt system topology)
        (Analysis.Placement.mean_strategy_rtt ~trials:3000 (Rng.create 43)
           system topology))

let geo_simulation () =
  Util.print_header
    "Placement: geo-distributed mutual exclusion (network latency = distance)";
  Printf.printf "  %-16s %-12s %s\n" "system" "mean wait" "p99 wait";
  List.iter
    (fun spec ->
      let system = Util.system spec in
      let rng = Rng.create 44 in
      let topology = three_clusters rng system.Quorum.System.n in
      let network = Topology.network ~base_latency:0.5 ~jitter:0.1 topology in
      let mx =
        Protocols.Mutex.of_config
          ~config:Protocols.Client_config.(default |> with_timeout 1000.0)
          ~system ~cs_duration:0.5 ()
      in
      let engine =
        Sim.Engine.create ~seed:45 ~nodes:system.Quorum.System.n ~network
          (Protocols.Mutex.handlers mx)
      in
      Protocols.Mutex.bind mx engine;
      Protocols.Workload.staggered_requests engine ~every:4.0 ~count:30
        (fun ~client -> Protocols.Mutex.request mx ~node:client);
      Sim.Engine.run engine;
      let stats = Protocols.Mutex.acquire_latency mx in
      Printf.printf "  %-16s %-12.2f %.2f   (%d/30 served, %d violations)\n"
        spec
        (Obs.Metrics.mean stats)
        (Obs.Metrics.percentile_or ~default:0.0 stats 0.99)
        (Protocols.Mutex.entries mx)
        (Protocols.Mutex.violations mx))
    [ "majority(15)"; "cwlog(14)"; "htgrid(4x4)"; "htriang(15)" ]

let run () =
  analysis ();
  geo_simulation ()
