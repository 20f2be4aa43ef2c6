module System = Quorum.System
module C = Chaos
module T = Throughput

type protocol = Mutex | Store | Reconfig | Throughput

let protocols = [ Mutex; Store; Reconfig; Throughput ]

let protocol_name = function
  | Mutex -> "mutex"
  | Store -> "store"
  | Reconfig -> "reconfig"
  | Throughput -> "throughput"

(* --- Pins ------------------------------------------------------------- *)

let seed = function
  | Mutex -> 41
  | Store -> 42
  | Reconfig -> 43
  | Throughput -> 46

let chaos_horizon ~fast = if fast then 150.0 else 400.0

let chaos_scenarios ~n ~horizon =
  C.standard ~n ~horizon @ C.recovery ~n ~horizon @ C.churn ~n ~horizon

let store_read_fraction = 0.7
let churn_seed = 45
let churn_universe = 30
let churn_rows = 5
let churn_downtime = 130.0
let churn_op_rate = 2.0
let churn_op_timeout = 30.0
let churn_period = 8.0
let churn_lease = 3.0
let churn_horizon ~fast = if fast then 150.0 else 300.0

let churn_scenario ~downtime ~horizon rate =
  {
    C.label = Printf.sprintf "rate=%.2f" rate;
    horizon;
    plan = { C.calm with loss = 0.02; churn_sustained = Some (rate, downtime) };
  }

let fd_seed = 47
let fd_horizon ~fast = if fast then 120.0 else 300.0
let fd_timeout = 5.0
let throughput_horizon ~fast = if fast then 80.0 else 200.0
let window = 6
let batch = 4
let batch_delay = 0.25
let fsync = 0.2
let open_n = 15
let open_rate = 12.0
let open_queue = 64

let throughput_scenario ~horizon label =
  { C.label; horizon; plan = { C.calm with fsync } }

(* --- Cells ------------------------------------------------------------ *)

type cell =
  | Mutex_cell of System.t
  | Store_cell of {
      read_system : System.t;
      write_system : System.t;
      name : string;
      read_fraction : float;
    }
  | Reconfig_cell of { initial : System.t; next : System.t; name : string }
  | Throughput_cell of {
      arm : T.arm;
      mode : T.mode;
      window : int;
      batch : int;
    }

let cell ?next ?(read_fraction = store_read_fraction) protocol system =
  let name = system.System.name in
  match protocol with
  | Mutex -> Mutex_cell system
  | Store ->
      Store_cell
        { read_system = system; write_system = system; name; read_fraction }
  | Reconfig ->
      let next = Option.value next ~default:system in
      Reconfig_cell
        { initial = system; next; name = name ^ "->" ^ next.System.name }
  | Throughput ->
      let arm =
        { T.arm_label = name; read_sys = system; write_sys = system;
          router = None }
      in
      Throughput_cell { arm; mode = T.Closed; window; batch }

let universe = function
  | Mutex_cell system -> system.System.n
  | Store_cell c -> c.read_system.System.n
  | Reconfig_cell c -> max c.initial.System.n c.next.System.n
  | Throughput_cell c -> c.arm.T.read_sys.System.n

let name = function
  | Mutex_cell system -> system.System.name
  | Store_cell { name; _ } | Reconfig_cell { name; _ } -> name
  | Throughput_cell c -> c.arm.T.arm_label

(* --- One run ---------------------------------------------------------- *)

type report =
  | Mutex_report of C.mutex_report
  | Store_report of C.store_report
  | Reconfig_report of C.reconfig_report
  | Throughput_report of T.report

type outcome = { report : report; history : Obs.Trace_analysis.hop list option }

let run ?seed:pinned ?obs cell scenario =
  let seed protocol = Option.value pinned ~default:(seed protocol) in
  let report, history =
    match cell with
    | Mutex_cell system ->
        let r = C.run_mutex ~seed:(seed Mutex) ?obs ~system scenario in
        (Mutex_report r, None)
    | Store_cell { read_system; write_system; name; read_fraction } ->
        let r, store =
          C.run_store_h ~seed:(seed Store) ~read_fraction ?obs ~read_system
            ~write_system ~name scenario
        in
        (Store_report r, Some (Replicated_store.history store))
    | Reconfig_cell { initial; next; name } ->
        let r, rc =
          C.run_reconfig_h ~seed:(seed Reconfig) ?obs ~initial ~next ~name
            scenario
        in
        (Reconfig_report r, Some (Reconfig.history rc))
    | Throughput_cell { arm; mode; window; batch } ->
        let r, store =
          T.run_h ~seed:(seed Throughput) ~mode ~window ~batch_size:batch
            ~batch_delay
            ~max_queue:open_queue ?router:arm.T.router ?obs
            ~read_system:arm.T.read_sys ~write_system:arm.T.write_sys
            ~name:arm.T.arm_label scenario
        in
        (Throughput_report r, Some (Replicated_store.history store))
  in
  { report; history }

let header = function
  | Mutex -> C.mutex_header ()
  | Store -> C.store_header ()
  | Reconfig -> C.reconfig_header ()
  | Throughput -> T.header ()

let row = function
  | Mutex_report r -> C.mutex_row r
  | Store_report r -> C.store_row r
  | Reconfig_report r -> C.reconfig_row r
  | Throughput_report r -> T.row r

let json = function
  | Mutex_report r ->
      Printf.sprintf
        "{\"system\": %S, \"scenario\": %S, \"seed\": %d, \"issued\": %d, \
         \"entries\": %d, \"violations\": %d, \"unavailable\": %d, \
         \"dead_letters\": %d, \"budget_hit\": %b}"
        r.C.system r.C.label r.C.seed r.C.issued r.C.entries r.C.violations
        r.C.unavailable r.C.dead_letters r.C.budget_hit
  | Store_report r ->
      Printf.sprintf
        "{\"system\": %S, \"scenario\": %S, \"seed\": %d, \"issued\": %d, \
         \"reads_ok\": %d, \"writes_ok\": %d, \"stale_reads\": %d, \
         \"rejoins\": %d, \"rejoin_refusals\": %d, \"unavailable\": %d, \
         \"timeouts\": %d, \"budget_hit\": %b}"
        r.C.system r.C.label r.C.seed r.C.issued r.C.reads_ok r.C.writes_ok
        r.C.stale_reads r.C.rejoins r.C.rejoin_refusals r.C.unavailable
        r.C.timeouts r.C.budget_hit
  | Reconfig_report r ->
      Printf.sprintf
        "{\"system\": %S, \"scenario\": %S, \"seed\": %d, \"issued\": %d, \
         \"reads_ok\": %d, \"writes_ok\": %d, \"retries\": %d, \"failed\": \
         %d, \"stale_reads\": %d, \"epoch_switches\": %d, \"final_epoch\": \
         %d, \"budget_hit\": %b}"
        r.C.system r.C.label r.C.seed r.C.issued r.C.reads_ok r.C.writes_ok
        r.C.retries r.C.failed r.C.stale_reads r.C.epoch_switches
        r.C.final_epoch r.C.budget_hit
  | Throughput_report r ->
      let b = r.T.breakdown in
      Printf.sprintf
        "{\"scenario\": %S, \"system\": %S, \"mode\": %S, \"seed\": %d, \
         \"n\": %d, \"shards\": %d, \"window\": %d, \"batch\": %d, \
         \"offered\": %g, \"issued\": %d, \"completed\": %d, \"failed\": %d, \
         \"shed\": %d, \"ops_per_sec\": %.4f, \"mean_latency\": %.4f, \
         \"p95_latency\": %.4f, \"peak_backlog\": %d, \"final_backlog\": %d, \
         \"batches\": %d, \"batched_ops\": %d, \"retransmissions\": %d, \
         \"stale_reads\": %d, \"breakdown\": {\"network\": %.3f, \"fsync\": \
         %.3f, \"queueing\": %.3f, \"retransmit\": %.3f}, \"budget_hit\": %b}"
        r.T.label r.T.system r.T.mode r.T.seed r.T.n r.T.shards r.T.window
        r.T.batch r.T.offered r.T.issued r.T.completed r.T.failed r.T.shed
        r.T.ops_per_sec r.T.mean_latency r.T.p95_latency r.T.peak_backlog
        r.T.final_backlog r.T.batches r.T.batched_ops r.T.retransmissions
        r.T.stale_reads b.Obs.Trace_analysis.network
        b.Obs.Trace_analysis.fsync b.Obs.Trace_analysis.queueing
        b.Obs.Trace_analysis.retransmit r.T.budget_hit

let unsafe what count label where =
  if count = 0 then None
  else Some (Printf.sprintf "%d %s at %s/%s" count what label where)

let verdict = function
  | Mutex_report r ->
      unsafe "mutex violations" r.C.violations r.C.label r.C.system
  | Store_report r -> unsafe "stale reads" r.C.stale_reads r.C.label r.C.system
  | Reconfig_report r ->
      unsafe "stale reads" r.C.stale_reads r.C.label r.C.system
  | Throughput_report r ->
      unsafe "stale reads" r.T.stale_reads r.T.label r.T.system

let churn_verdict (r : C.churn_report) =
  unsafe "stale reads" r.C.stale_reads r.C.label r.C.mode

let fd_verdict (r : C.fd_report) =
  unsafe "stale reads" r.C.stale_reads r.C.label r.C.detector
