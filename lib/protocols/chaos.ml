module Engine = Sim.Engine
module Network = Sim.Network
module Injector = Sim.Failure_injector
module Durable = Sim.Durable
module Rng = Quorum.Rng
module Bitset = Quorum.Bitset

type plan = {
  loss : float;
  bursts : (float * float * float) list;
  gray : (int * float * float * float) list;
  links : (float * float * int * int * float) list;
  partitions : (float * float * int list) list;
  churn : (float * float) option;
  churn_sustained : (float * float) option;
  restarts : (float * float * int list) list;
  amnesia : bool;
  fsync : float;
}

let calm =
  {
    loss = 0.0;
    bursts = [];
    gray = [];
    links = [];
    partitions = [];
    churn = None;
    churn_sustained = None;
    restarts = [];
    amnesia = false;
    fsync = 0.0;
  }

let durability_of_plan p = Durable.config ~fsync_latency:p.fsync ()

type scenario = { label : string; horizon : float; plan : plan }

(* A minority group to cut off: small enough that the majority side
   keeps quorums, so the interesting question is how fast the
   protocols route around the cut. *)
let minority n = List.init (max 1 (n / 4)) (fun i -> i)

let standard ~n ~horizon =
  let h = horizon in
  [
    { label = "baseline"; horizon = h; plan = calm };
    {
      label = "loss+burst";
      horizon = h;
      plan =
        { calm with loss = 0.05; bursts = [ (0.3 *. h, 0.1 *. h, 0.30) ] };
    };
    {
      label = "partition";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.05;
          partitions = [ (0.25 *. h, 0.2 *. h, minority n) ];
        };
    };
    {
      label = "churn-iid";
      horizon = h;
      plan = { calm with loss = 0.02; churn = Some (0.10, 0.05 *. h) };
    };
    {
      label = "gray";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          gray =
            [ (0, 0.2 *. h, 0.25 *. h, 25.0); (1, 0.55 *. h, 0.2 *. h, 25.0) ];
        };
    };
  ]

(* Crash-restart and amnesia scenarios.  Every plan uses a non-zero
   fsync latency, so the write-ahead gating in the protocols is
   actually exercised: acks are delayed past the state they cover, and
   a crash inside that window loses exactly the unacknowledged tail. *)
let recovery ~n ~horizon =
  let h = horizon in
  let majority = List.init ((n / 2) + 1) (fun i -> i) in
  [
    {
      (* Restarts (memory intact) landing while writes are in flight. *)
      label = "restart";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          fsync = 0.5;
          restarts =
            [
              (0.30 *. h, 0.10 *. h, minority n);
              (0.60 *. h, 0.10 *. h, minority n);
            ];
        };
    };
    {
      (* Amnesiac minority restart: recovered nodes must replay their
         durable log and re-join before serving. *)
      label = "amnesia";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          fsync = 0.5;
          amnesia = true;
          restarts = [ (0.35 *. h, 0.08 *. h, minority n) ];
        };
    };
    {
      (* The hard one: a majority loses its memory at once, so any
         state that only lived in volatile memory is gone from every
         quorum. *)
      label = "amnesia-maj";
      horizon = h;
      plan =
        {
          calm with
          fsync = 0.5;
          amnesia = true;
          restarts = [ (0.40 *. h, 0.10 *. h, majority) ];
        };
    };
  ]

(* Sustained-churn scenarios: Poisson join/leave over the whole run
   (not iid up/down per node) — the regime the dynamic-membership
   controller is built for.  The rate is population- and
   horizon-relative so the expected number of simultaneously-down
   processes is ~10% of n throughout. *)
let churn ~n ~horizon =
  let h = horizon in
  let rate = 2.0 *. float_of_int n /. h in
  let down = 0.05 *. h in
  [
    {
      label = "churn";
      horizon = h;
      plan = { calm with loss = 0.02; churn_sustained = Some (rate, down) };
    };
    {
      (* Leavers come back amnesiac: admission must re-sync them. *)
      label = "churn-amnesia";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          fsync = 0.5;
          amnesia = true;
          churn_sustained = Some (rate, down);
        };
    };
    {
      (* Churn with a minority cut landing mid-run on top of it. *)
      label = "churn-partition";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          churn_sustained = Some (rate, down);
          partitions = [ (0.40 *. h, 0.15 *. h, minority n) ];
        };
    };
  ]

(* Failure-detection stress: scenarios built to make a detector wrong
   in each of the ways a detector can be wrong.  No crashes in
   [asym-link] / [suspect-burst] — every suspicion there is false by
   construction, so the oracle counters isolate the accuracy cost. *)
let fd_family ~n ~horizon =
  let h = horizon in
  ignore n;
  [
    {
      (* A node flapping in and out of gray failure: four short
         slow-windows, each long enough to miss heartbeats but short
         enough that a naive detector flaps with it. *)
      label = "gray-flap";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          gray =
            [
              (0, 0.15 *. h, 0.06 *. h, 30.0);
              (0, 0.30 *. h, 0.06 *. h, 30.0);
              (0, 0.50 *. h, 0.06 *. h, 30.0);
              (1, 0.40 *. h, 0.08 *. h, 30.0);
            ];
        };
    };
    {
      (* Asymmetric links: node 0 hears nobody for a while (its
         outbound links stay clean), then the reverse direction for
         node 1 — observers disagree about who is dead. *)
      label = "asym-link";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          links =
            List.concat
              [
                List.init (min 8 (n - 1)) (fun i ->
                    (0.2 *. h, 0.15 *. h, i + 1, 0, 0.95));
                List.init (min 8 (n - 1)) (fun i ->
                    (0.55 *. h, 0.15 *. h, 1, (i + 2) mod n, 0.95));
              ];
        };
    };
    {
      (* False-suspicion bursts: everyone stays up, but three heavy
         loss bursts swallow whole heartbeat rounds. *)
      label = "suspect-burst";
      horizon = h;
      plan =
        {
          calm with
          loss = 0.02;
          bursts =
            [
              (0.20 *. h, 0.04 *. h, 0.85);
              (0.45 *. h, 0.04 *. h, 0.85);
              (0.70 *. h, 0.04 *. h, 0.85);
            ];
        };
    };
  ]

let all_scenarios ~n ~horizon =
  standard ~n ~horizon @ recovery ~n ~horizon @ churn ~n ~horizon
  @ fd_family ~n ~horizon

let scenario_of_label ~n ~horizon label =
  match
    List.find_opt (fun s -> s.label = label) (all_scenarios ~n ~horizon)
  with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Chaos: unknown scenario %S (have: %s)" label
           (String.concat ", "
              (List.map (fun s -> s.label) (all_scenarios ~n ~horizon))))

let apply engine ~rng scenario =
  let p = scenario.plan in
  List.iter
    (fun (at, duration, loss) -> Injector.loss_burst engine ~at ~duration ~loss)
    p.bursts;
  List.iter
    (fun (node, at, duration, slowdown) ->
      Injector.gray_failure engine ~node ~at ~duration ~slowdown)
    p.gray;
  Injector.link_windows engine p.links;
  Injector.partition_schedule engine p.partitions;
  Injector.restarts ~amnesia:p.amnesia engine p.restarts;
  (match p.churn with
  | Some (p_down, mean_downtime) ->
      Injector.iid_faults ~amnesia:p.amnesia engine ~rng ~p:p_down
        ~mean_downtime ~horizon:scenario.horizon
  | None -> ());
  match p.churn_sustained with
  | Some (rate, mean_downtime) ->
      Injector.poisson_churn ~amnesia:p.amnesia engine ~rng ~rate
        ~mean_downtime ~horizon:scenario.horizon
  | None -> ()

(* --- Mutual exclusion under chaos ---------------------------------- *)

type mutex_report = {
  label : string;
  system : string;
  seed : int;
  issued : int;
  entries : int;
  violations : int;
  unavailable : int;
  reselections : int;
  abandoned : int;
  dead_letters : int;
  retransmissions : int;
  mean_wait : float;
  msgs_per_entry : float;
  budget_hit : bool;
}

(* Each client holds the critical section for [cs_duration] and gives
   up an acquisition after [acquire_timeout]. *)
let cs_duration = 1.0
let acquire_timeout = 80.0

let run_mutex ?(seed = 7) ?(rate = 0.4) ?obs ~system scenario =
  let n = system.Quorum.System.n in
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.plan.loss () in
  let config =
    Client_config.(
      default
      |> with_timeout acquire_timeout
      |> with_durability (durability_of_plan scenario.plan))
  in
  let mx = Mutex.of_config ~config ~system ~cs_duration () in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:n ~network ?obs (Mutex.handlers mx)
  in
  Mutex.bind mx engine;
  apply engine ~rng scenario;
  let issued =
    Workload.poisson_ops engine ~rng ~rate ~horizon:scenario.horizon
      (fun ~client -> Mutex.request mx ~node:client)
  in
  let outcome = Engine.run_status engine in
  let entries = Mutex.entries mx in
  let wait = Mutex.acquire_latency mx in
  {
    label = scenario.label;
    system = system.Quorum.System.name;
    seed;
    issued;
    entries;
    violations = Mutex.violations mx;
    unavailable = Mutex.unavailable mx;
    reselections = Mutex.reselections mx;
    abandoned = Mutex.abandoned mx;
    dead_letters = Mutex.dead_letters mx;
    retransmissions = Mutex.retransmissions mx;
    mean_wait = Obs.Metrics.mean wait;
    msgs_per_entry =
      (if entries = 0 then 0.0
       else
         float_of_int (Engine.messages_sent engine) /. float_of_int entries);
    budget_hit = outcome = Engine.Budget_exhausted;
  }

(* --- Replicated store under chaos ---------------------------------- *)

type store_report = {
  label : string;
  system : string;
  seed : int;
  issued : int;
  reads_ok : int;
  writes_ok : int;
  unavailable : int;
  timeouts : int;
  retried : int;
  stale_reads : int;
  rejoins : int;
  rejoin_refusals : int;
  dead_letters : int;
  retransmissions : int;
  mean_latency : float;
  budget_hit : bool;
}

(* Client constants of the store, fd and reconfig runners: ops spread
   over [keys] keys and time out after [op_timeout]; the store retries
   a timed-out op [retries] times. *)
let keys = 4
let op_timeout = 25.0
let retries = 2

let run_store_h ?(seed = 7) ?(rate = 2.0) ?(read_fraction = 0.7) ?obs
    ~read_system ~write_system ~name scenario =
  let n = read_system.Quorum.System.n in
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.plan.loss () in
  let config =
    Client_config.(
      default
      |> with_timeout op_timeout
      |> with_retries retries
      |> with_durability (durability_of_plan scenario.plan))
  in
  let store = Replicated_store.of_config ~config ~read_system ~write_system () in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:n ~network ?obs
      (Replicated_store.handlers store)
  in
  Replicated_store.bind store engine;
  apply engine ~rng scenario;
  let issued =
    Workload.read_write_mix engine ~rng ~rate ~horizon:scenario.horizon
      ~read_fraction ~keys
      ~read:(fun ~client ~key -> Replicated_store.read store ~client ~key)
      ~write:(fun ~client ~key ~value ->
        Replicated_store.write store ~client ~key ~value)
  in
  let outcome = Engine.run_status engine in
  (* Both op=read and op=write cells of store.op_latency, combined. *)
  let lat = Replicated_store.op_latency store in
  let mean_latency =
    let cells = [ [ ("op", "read") ]; [ ("op", "write") ] ] in
    let n =
      List.fold_left (fun a l -> a + Obs.Metrics.count ~labels:l lat) 0 cells
    in
    let s =
      List.fold_left (fun a l -> a +. Obs.Metrics.sum ~labels:l lat) 0.0 cells
    in
    if n = 0 then 0.0 else s /. float_of_int n
  in
  ( {
      label = scenario.label;
      system = name;
      seed;
      issued;
      reads_ok = Replicated_store.reads_ok store;
      writes_ok = Replicated_store.writes_ok store;
      unavailable = Replicated_store.unavailable store;
      timeouts = Replicated_store.timeouts store;
      retried = Replicated_store.retried store;
      stale_reads = Replicated_store.stale_reads store;
      rejoins = Replicated_store.rejoins store;
      rejoin_refusals = Replicated_store.rejoin_refusals store;
      dead_letters = Replicated_store.dead_letters store;
      retransmissions = Replicated_store.retransmissions store;
      mean_latency;
      budget_hit = outcome = Engine.Budget_exhausted;
    },
    store )

(* --- Failure detection under chaos ----------------------------------- *)

type fd_report = {
  label : string;
  detector : string;
  seed : int;
  issued : int;
  ok : int;
  stale_reads : int;
  unavailable : int;
  hedges : int;
  degraded_writes : int;
  detections : int;
  mean_detect : float;
  max_detect : float;
  false_positives : int;
  missed : int;
  transitions : int;
  p99_latency : float;
  per_node : Sim.Failure_detector.stats array;
  budget_hit : bool;
}

(* A replicated store (whose clients route by failure-detector view)
   under the scenario, with the detector itself as the unit under
   test: the report aggregates every observer's oracle-measured
   accuracy — detection latency, false-positive onsets, missed
   detections, suspicion flips — plus the routing-layer effects
   (hedges, degraded-mode refusals, tail latency).  Ops arrive at
   [fd_rate]; detectors beat every [fd_period]. *)
let fd_rate = 2.0
let fd_period = 1.0

let run_fd ?(seed = 7) ?(fd_timeout = 5.0) ?accrual ?(hedge = false)
    ?(degraded_reads = false) ~read_system ~write_system ~name scenario =
  ignore name;
  let n = read_system.Quorum.System.n in
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.plan.loss () in
  let config =
    Client_config.(
      default
      |> with_timeout op_timeout
      |> with_fd ~period:fd_period ~timeout:fd_timeout ?accrual
      |> with_routing ~hedge ~degraded_reads
      |> with_durability (durability_of_plan scenario.plan))
  in
  let store =
    Replicated_store.of_config ~config ~read_system ~write_system ()
  in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:n ~network
      (Replicated_store.handlers store)
  in
  Replicated_store.bind store engine;
  apply engine ~rng scenario;
  let issued =
    Workload.read_write_mix engine ~rng ~rate:fd_rate
      ~horizon:scenario.horizon ~read_fraction:0.7 ~keys
      ~read:(fun ~client ~key -> Replicated_store.read store ~client ~key)
      ~write:(fun ~client ~key ~value ->
        Replicated_store.write store ~client ~key ~value)
  in
  let outcome = Engine.run_status engine in
  let per_node =
    Array.init n (fun node -> Replicated_store.fd_stats store ~node)
  in
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 per_node in
  let detections = total (fun s -> s.Sim.Failure_detector.detections) in
  let dsum =
    Array.fold_left
      (fun acc (s : Sim.Failure_detector.stats) ->
        acc +. (s.mean_detect *. float_of_int s.detections))
      0.0 per_node
  in
  let lat = Replicated_store.op_latency store in
  let p99_latency =
    Float.max
      (Obs.Metrics.percentile_or ~labels:[ ("op", "read") ] ~default:0.0 lat
         0.99)
      (Obs.Metrics.percentile_or ~labels:[ ("op", "write") ] ~default:0.0 lat
         0.99)
  in
  let detector =
    (match accrual with
    | Some phi -> Printf.sprintf "accrual(%g)" phi
    | None -> Printf.sprintf "fixed(%g)" fd_timeout)
    ^ if hedge then "+hedge" else ""
  in
  {
    label = scenario.label;
    detector;
    seed;
    issued;
    ok = Replicated_store.reads_ok store + Replicated_store.writes_ok store;
    stale_reads = Replicated_store.stale_reads store;
    unavailable = Replicated_store.unavailable store;
    hedges = Replicated_store.hedges store;
    degraded_writes = Replicated_store.degraded_writes store;
    detections;
    mean_detect =
      (if detections = 0 then 0.0 else dsum /. float_of_int detections);
    max_detect =
      Array.fold_left
        (fun acc (s : Sim.Failure_detector.stats) -> Float.max acc s.max_detect)
        0.0 per_node;
    false_positives = total (fun s -> s.false_positives);
    missed = total (fun s -> s.missed);
    transitions = total (fun s -> s.transitions);
    p99_latency;
    per_node;
    budget_hit = outcome = Engine.Budget_exhausted;
  }

(* --- Reconfiguration under chaos ------------------------------------ *)

type reconfig_report = {
  label : string;
  system : string;
  seed : int;
  issued : int;
  reads_ok : int;
  writes_ok : int;
  retries : int;
  failed : int;
  stale_reads : int;
  epoch_switches : int;
  final_epoch : int;
  budget_hit : bool;
}

(* A register being reconfigured back and forth between two systems
   while the scenario's faults land — with restart windows, restarts
   hit {e during} the seal / install sequence. *)
let run_reconfig_h ?(seed = 7) ?(rate = 1.0) ?obs ~initial ~next ~name
    scenario =
  let universe = max initial.Quorum.System.n next.Quorum.System.n in
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.plan.loss () in
  let config =
    Client_config.(
      default
      |> with_timeout op_timeout
      |> with_durability (durability_of_plan scenario.plan))
  in
  let rc = Reconfig.of_config ~config ~initial ~universe () in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:universe ~network ?obs
      (Reconfig.handlers rc)
  in
  Reconfig.bind rc engine;
  apply engine ~rng scenario;
  (* Two switches, timed to overlap the scenario's fault windows. *)
  let switch_at frac target =
    Engine.schedule engine ~time:(frac *. scenario.horizon) (fun () ->
        match Bitset.to_list (Engine.live_set engine) with
        | [] -> ()
        | c :: _ -> Reconfig.reconfigure rc ~coordinator:c target)
  in
  switch_at 0.35 next;
  switch_at 0.70 initial;
  let k = ref 0 in
  let issued =
    Workload.poisson_ops engine ~rng ~rate ~horizon:scenario.horizon
      (fun ~client ->
        incr k;
        if !k mod 3 = 0 then Reconfig.write rc ~client ~value:!k
        else Reconfig.read rc ~client)
  in
  let outcome = Engine.run_status engine in
  ( {
      label = scenario.label;
      system = name;
      seed;
      issued;
      reads_ok = Reconfig.reads_ok rc;
      writes_ok = Reconfig.writes_ok rc;
      retries = Reconfig.retries rc;
      failed = Reconfig.failed rc;
      stale_reads = Reconfig.stale_reads rc;
      epoch_switches = Reconfig.epoch_switches rc;
      final_epoch = Reconfig.current_epoch rc;
      budget_hit = outcome = Engine.Budget_exhausted;
    },
    rc )

(* --- Availability under sustained churn ------------------------------ *)

type churn_mode = Static | Resize | Timed | Fd

let churn_mode_name = function
  | Static -> "static"
  | Resize -> "resize"
  | Timed -> "timed"
  | Fd -> "fd"

type churn_report = {
  label : string;
  mode : string;
  seed : int;
  issued : int;
  ok : int;
  failed : int;
  crash_kills : int;
      (* ops whose client died mid-flight — excluded from availability *)
  availability : float;
  retries : int;
  stale_reads : int;
  epoch_switches : int;
  proposals : int;
  grows : int;
  shrinks : int;
  replacements : int;
  lease_refusals : int;
  false_evictions : int;
  switch_downtime : float;
  final_members : int;
  budget_hit : bool;
}

(* A membership-managed register under the scenario.  [Static] never
   starts the controller (the triangle placed at t=0 is all there is),
   [Resize] runs the replace/grow/shrink policy, [Timed] additionally
   runs the register in timed-quorum mode so switches drain leases
   instead of sealing a structural old-system quorum.  [Fd] is
   [Resize] with the controller blinded: its liveness opinion comes
   from the members' failure-detector views (quorum-merged, with flap
   hysteresis) instead of the engine's oracle — the availability gap
   between [resize] and [fd] is the measured price of realistic
   failure detection.

   Clients are drawn from the {e live} set at issue time — a client
   that is down submits nothing, so availability measures the
   service's ability to answer, not the workload generator's luck.
   The controller keeps [margin] spares of headroom (its hysteresis,
   see Membership.create). *)
let margin = 6

let run_churn_h ?(seed = 7) ?(rate = 2.0) ?(op_timeout = 30.0) ?(rows = 5)
    ?(period = 8.0) ?(lease = 8.0) ?obs ~mode ~universe scenario =
  let rng = Rng.create seed in
  let network = Network.create ~loss:scenario.plan.loss () in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let ms =
    Membership.create
      ~durability:(durability_of_plan scenario.plan)
      ?lease:
        (match mode with
        | Timed -> Some lease
        | Static | Resize | Fd -> None)
      ~view:
        (match mode with
        | Fd -> Membership.Fd { merged = true }
        | Static | Resize | Timed -> Membership.Omniscient)
      ~switch_retry:3.0 ~margin ~rows ~universe ~timeout:op_timeout ()
  in
  let rc = Membership.reconfig ms in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:universe ~network ~obs
      (Membership.handlers ms)
  in
  Membership.bind ms engine;
  apply engine ~rng scenario;
  (match mode with
  | Static -> ()
  | Resize | Timed | Fd ->
      Membership.start ms engine ~period ~horizon:scenario.horizon);
  let issued = ref 0 in
  let rec arm time =
    let next = time +. Rng.exponential rng ~mean:(1.0 /. rate) in
    if next < scenario.horizon then (
      Engine.schedule engine ~time:next (fun () ->
          match Bitset.to_list (Engine.live_set engine) with
          | [] -> ()
          | live ->
              incr issued;
              let client = Rng.pick rng (Array.of_list live) in
              if !issued mod 3 = 0 then
                Reconfig.write rc ~client ~value:!issued
              else Reconfig.read rc ~client);
      arm next)
  in
  arm 0.0;
  let outcome = Engine.run_status engine in
  let ok = Reconfig.reads_ok rc + Reconfig.writes_ok rc in
  ( {
      label = scenario.label;
      mode = churn_mode_name mode;
      seed;
      issued = !issued;
      ok;
      failed = Reconfig.failed rc;
      crash_kills = Reconfig.client_crash_kills rc;
      availability =
        (* Service availability: a client dying mid-operation is not a
           refusal by the service, so those ops leave the denominator. *)
        (let asked = !issued - Reconfig.client_crash_kills rc in
         if asked <= 0 then 1.0 else float_of_int ok /. float_of_int asked);
      retries = Reconfig.retries rc;
      stale_reads = Reconfig.stale_reads rc;
      epoch_switches = Reconfig.epoch_switches rc;
      proposals = Membership.proposals ms;
      grows = Membership.grows ms;
      shrinks = Membership.shrinks ms;
      replacements = Membership.replacements ms;
      lease_refusals = Reconfig.lease_refusals rc;
      false_evictions = Membership.false_evictions ms;
      switch_downtime =
        Obs.Trace_analysis.span_window_total ~spans:(Obs.spans obs)
          ~name:"reconfig.switch";
      final_members = Array.length (Membership.members ms);
      budget_hit = outcome = Engine.Budget_exhausted;
    },
    ms )

(* --- Rendering ------------------------------------------------------ *)

let mutex_header () =
  Printf.sprintf "%-15s %-14s %6s %6s %4s %6s %6s %5s %5s %6s %8s %9s" "scenario"
    "system" "issued" "entry" "viol" "unavl" "resel" "aband" "dead" "rexmt"
    "wait" "msgs/ent"

let mutex_row (r : mutex_report) =
  Printf.sprintf "%-15s %-14s %6d %6d %4d %6d %6d %5d %5d %6d %8.2f %9.1f%s"
    r.label r.system r.issued r.entries r.violations r.unavailable
    r.reselections r.abandoned r.dead_letters r.retransmissions r.mean_wait
    r.msgs_per_entry
    (if r.budget_hit then "  [budget!]" else "")

let store_header () =
  Printf.sprintf "%-15s %-14s %6s %6s %6s %6s %5s %5s %5s %6s %5s %6s %8s"
    "scenario" "system" "issued" "reads" "writes" "unavl" "tmout" "retry"
    "stale" "rejoin" "dead" "rexmt" "latency"

let store_row (r : store_report) =
  Printf.sprintf "%-15s %-14s %6d %6d %6d %6d %5d %5d %5d %6d %5d %6d %8.2f%s"
    r.label r.system r.issued r.reads_ok r.writes_ok r.unavailable r.timeouts
    r.retried r.stale_reads r.rejoins r.dead_letters r.retransmissions
    r.mean_latency
    (if r.budget_hit then "  [budget!]" else "")

let churn_header () =
  Printf.sprintf
    "%-15s %-7s %6s %6s %6s %5s %6s %5s %6s %5s %5s %5s %6s %6s %9s %4s"
    "scenario" "mode" "issued" "ok" "failed" "ckill" "avail" "stale" "switch"
    "grow" "shrnk" "repl" "lease" "fevict" "downtime" "memb"

let churn_row (r : churn_report) =
  Printf.sprintf
    "%-15s %-7s %6d %6d %6d %5d %6.3f %5d %6d %5d %5d %5d %6d %6d %9.1f %4d%s"
    r.label r.mode r.issued r.ok r.failed r.crash_kills r.availability
    r.stale_reads r.epoch_switches r.grows r.shrinks r.replacements
    r.lease_refusals r.false_evictions r.switch_downtime r.final_members
    (if r.budget_hit then "  [budget!]" else "")

let fd_header () =
  Printf.sprintf
    "%-13s %-14s %6s %6s %5s %6s %5s %6s %7s %7s %5s %6s %5s %8s" "scenario"
    "detector" "issued" "ok" "stale" "hedges" "degrd" "detect" "meanlat"
    "maxlat" "fpos" "missed" "flips" "p99"

let fd_row (r : fd_report) =
  Printf.sprintf
    "%-13s %-14s %6d %6d %5d %6d %5d %6d %7.2f %7.2f %5d %6d %5d %8.2f%s"
    r.label r.detector r.issued r.ok r.stale_reads r.hedges
    r.degraded_writes r.detections r.mean_detect r.max_detect
    r.false_positives r.missed r.transitions r.p99_latency
    (if r.budget_hit then "  [budget!]" else "")

let reconfig_header () =
  Printf.sprintf "%-15s %-17s %6s %6s %6s %5s %6s %5s %6s %5s" "scenario"
    "system" "issued" "reads" "writes" "retry" "failed" "stale" "switch"
    "epoch"

let reconfig_row (r : reconfig_report) =
  Printf.sprintf "%-15s %-17s %6d %6d %6d %5d %6d %5d %6d %5d%s" r.label
    r.system r.issued r.reads_ok r.writes_ok r.retries r.failed r.stale_reads
    r.epoch_switches r.final_epoch
    (if r.budget_hit then "  [budget!]" else "")
