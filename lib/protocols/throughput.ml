module Engine = Sim.Engine
module Network = Sim.Network
module Rng = Quorum.Rng
module System = Quorum.System
module Store = Replicated_store
module Metrics = Obs.Metrics

(* --- Arms: the three system shapes the sweep compares --------------- *)

type arm = {
  arm_label : string;
  read_sys : System.t;
  write_sys : System.t;
  router : Shard_router.t option;
}

(* Largest triangle row count fitting n processes: r(r+1)/2 <= n. *)
let tri_rows n =
  let rec go r = if (r + 1) * (r + 2) / 2 <= n then go (r + 1) else r in
  go 1

let flat_arm ~n =
  let sys = Systems.Majority.make n in
  {
    arm_label = "flat-majority";
    read_sys = sys;
    write_sys = sys;
    router = None;
  }

let htriang_arm ~n =
  let tri = Core.Htriang.standard ~rows:(tri_rows n) () in
  let used = tri.Core.Htriang.n in
  let sys = Core.Htriang.system tri in
  let sys =
    (* Processes beyond the triangle's footprint idle as spares, like
       Membership placements. *)
    if used = n then sys
    else System.embed ~universe:n ~place:(Array.init used Fun.id) sys
  in
  { arm_label = "h-triang"; read_sys = sys; write_sys = sys; router = None }

let sharded_arm ?shards ~n () =
  let shards = match shards with Some s -> s | None -> max 1 (n / 4) in
  match Shard_router.create ~family:Shard_router.Hgrid ~universe:n ~shards () with
  | Error _ as e -> e
  | Ok router ->
      (* The global systems are nominal: with a router bound, every
         per-key selection goes through the key's shard instead. *)
      let global = Systems.Majority.make n in
      Ok
        {
          arm_label = Printf.sprintf "shard-hgrid/%d" shards;
          read_sys = global;
          write_sys = global;
          router = Some router;
        }

let arms ?shards ~n () =
  match sharded_arm ?shards ~n () with
  | Error _ as e -> e
  | Ok sharded -> Ok [ flat_arm ~n; htriang_arm ~n; sharded ]

(* --- One run --------------------------------------------------------- *)

type mode = Closed | Open of float

let mode_label = function Closed -> "closed" | Open _ -> "open"

type report = {
  label : string;
  system : string;
  seed : int;
  mode : string;
  offered : float;  (** open-loop arrival rate; 0 for closed loop *)
  n : int;
  shards : int;
  sessions : int;
  window : int;
  batch : int;
  issued : int;
  completed : int;
  failed : int;
  shed : int;
  ops_per_sec : float;
  mean_latency : float;
  p95_latency : float;
  peak_backlog : int;
  final_backlog : int;
  batches : int;
  batched_ops : int;
  retransmissions : int;
  stale_reads : int;
  breakdown : Obs.Trace_analysis.breakdown;
  budget_hit : bool;
}

(* Per-request cost 0.3 makes quorum size visible as capacity: a node
   serves at most ~3.3 requests per time unit, and a node that sits in
   every quorum caps the whole system there.  per_batch below per_req
   is what batching amortizes. *)
let service = Store.service ~per_req:0.3 ~per_batch:0.1 ()

let run_h ?(seed = 7) ?(mode = Closed) ?(window = 4) ?(batch_size = 4)
    ?(batch_delay = 0.25) ?(max_queue = 64) ?(read_fraction = 0.5) ?router
    ?obs ~read_system ~write_system ~name scenario =
  let n = read_system.System.n in
  let keys = 2 * n in
  let horizon = scenario.Chaos.horizon in
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.Chaos.plan.Chaos.loss () in
  let config =
    Client_config.(
      default
      |> with_durability (Chaos.durability_of_plan scenario.Chaos.plan))
  in
  let store =
    Store.of_config ~config ?router ~service ~read_system ~write_system ()
  in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:n ~network ?obs
      (Store.handlers store)
  in
  Store.bind store engine;
  Chaos.apply engine ~rng scenario;
  let sessions =
    Array.init n (fun client ->
        Store.Session.create store ~client ~window ~batch_size ~batch_delay
          ~max_queue ())
  in
  let issued = ref 0 in
  let next_value = ref 0 in
  let request () =
    incr issued;
    let key = Rng.int rng keys in
    if Rng.bernoulli rng read_fraction then Store.Get { key }
    else begin
      incr next_value;
      Store.Put { key; value = !next_value }
    end
  in
  let offered =
    match mode with
    | Closed ->
        Workload.closed_loop engine ~stations:n ~per_station:window ~horizon
          (fun ~station ~complete ->
            let accepted =
              Store.Session.submit store sessions.(station)
                ~on_complete:(fun outcome ->
                  let ok =
                    match outcome with
                    | Store.Read_done _ | Store.Write_done _ -> true
                    | Store.Timed_out | Store.Unavailable -> false
                  in
                  complete ~ok)
                (request ())
            in
            if not accepted then complete ~ok:false);
        0.0
    | Open rate ->
        ignore
          (Workload.open_loop engine ~rng ~rate ~horizon (fun () ->
               let station = Rng.int rng n in
               let (_ : bool) =
                 Store.Session.submit store sessions.(station) (request ())
               in
               ()));
        rate
  in
  (* Flush partial batches left at the end of the load window; their
     completions still need engine time, which run_status drains. *)
  Engine.schedule engine ~time:horizon (fun () ->
      Array.iter (fun s -> Store.Session.drain store s) sessions);
  let outcome = Engine.run_status engine in
  let completed = Store.reads_ok store + Store.writes_ok store in
  let lat = Store.op_latency store in
  let cells = [ [ ("op", "read") ]; [ ("op", "write") ] ] in
  let lat_count =
    List.fold_left (fun a l -> a + Metrics.count ~labels:l lat) 0 cells
  in
  let lat_sum =
    List.fold_left (fun a l -> a +. Metrics.sum ~labels:l lat) 0.0 cells
  in
  let p95 =
    List.fold_left
      (fun a l -> Float.max a (Metrics.percentile_or ~labels:l ~default:0.0 lat 0.95))
      0.0 cells
  in
  let breakdown =
    match obs with
    | None -> Obs.Trace_analysis.zero_breakdown
    | Some o -> (
        match
          Obs.Trace_analysis.profile_ops ~trace:(Obs.trace o)
            ~spans:(Obs.spans o) ()
        with
        | [] -> Obs.Trace_analysis.zero_breakdown
        | profiles -> (Obs.Trace_analysis.aggregate profiles).Obs.Trace_analysis.total)
  in
  ( {
      label = scenario.Chaos.label;
      system = name;
      seed;
      mode = mode_label mode;
      offered;
      n;
      shards = (match router with Some r -> Shard_router.shard_count r | None -> 1);
      sessions = n;
      window;
      batch = batch_size;
      issued = !issued;
      completed;
      failed = Store.timeouts store + Store.unavailable store;
      shed = Store.shed store;
      ops_per_sec =
        (if horizon <= 0.0 then 0.0 else float_of_int completed /. horizon);
      mean_latency =
        (if lat_count = 0 then 0.0 else lat_sum /. float_of_int lat_count);
      p95_latency = p95;
      peak_backlog =
        Array.fold_left
          (fun a s -> max a (Store.Session.peak_queue s))
          0 sessions;
      final_backlog =
        Array.fold_left (fun a s -> a + Store.Session.queued s) 0 sessions;
      batches = Store.batches store;
      batched_ops = Store.batched_ops store;
      retransmissions = Store.retransmissions store;
      stale_reads = Store.stale_reads store;
      breakdown;
      budget_hit = outcome = Engine.Budget_exhausted;
    },
    store )

let run_arm ?seed ?mode ?window ?max_queue arm scenario =
  fst
    (run_h ?seed ?mode ?window ?max_queue ?router:arm.router
       ~read_system:arm.read_sys ~write_system:arm.write_sys
       ~name:arm.arm_label scenario)

(* --- Rendering ------------------------------------------------------- *)

let header () =
  Printf.sprintf
    "%-10s %-15s %-6s %3s %3s %3s %3s %6s %6s %5s %5s %7s %7s %7s %5s %6s %5s"
    "scenario" "system" "mode" "n" "sh" "w" "b" "issued" "done" "fail" "shed"
    "ops/s" "lat" "p95" "queue" "batch" "stale"

let row (r : report) =
  Printf.sprintf
    "%-10s %-15s %-6s %3d %3d %3d %3d %6d %6d %5d %5d %7.2f %7.2f %7.2f %5d %6d %5d%s"
    r.label r.system r.mode r.n r.shards r.window r.batch r.issued r.completed
    r.failed r.shed r.ops_per_sec r.mean_latency r.p95_latency r.peak_backlog
    r.batches r.stale_reads
    (if r.budget_hit then "  [budget!]" else "")
