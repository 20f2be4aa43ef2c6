(* The four pinned workloads.  Each is a [setup] that builds its inputs
   from a seed and a size, returning a [run] that executes one rep and
   reports one [cell] per unit of work (a store arm, a chaos cell, an
   exact scan, an optimizer sweep).  Sizes are an argument, not a
   flag, so the test suite can run every workload small.

   Why these four (README.md has the longer version):
   - store-read:  message- and selection-heavy, durable log idle;
   - store-write: the same store layer, carried by group commit and
                  fsync timers instead;
   - chaos-mix:   timer- and fault-heavy open-loop cells across mutex,
                  store, reconfig and membership, plus history audits;
   - analysis:    no simulator at all — exact 2^n scans, the LP and
                  the domain pool; the "should not move" control for
                  any engine change. *)

module C = Protocols.Chaos
module T = Protocols.Throughput
module Store = Protocols.Replicated_store
module TA = Obs.Trace_analysis

type size = {
  store_horizon : float;  (** simulated time per store arm *)
  chaos_horizon : float;  (** per mutex / store / reconfig cell *)
  churn_horizon : float;  (** per membership cell *)
  exact : string list;  (** systems scanned by [Failure.exact_poly] *)
  sweep_n : int;  (** universe of the optimizer sweeps *)
  sweep_trials : int;
}

let full =
  {
    store_horizon = 1000.0;
    chaos_horizon = 400.0;
    churn_horizon = 300.0;
    exact = [ "grid-rw(4x6)"; "majority(24)"; "htgrid(4x5)"; "htriang(21)" ];
    sweep_n = 15;
    sweep_trials = 50_000;
  }

type mode =
  | Warmup  (** untimed; runs the once-per-process checks *)
  | Timed
  | Traced of Tracer.t

let tracer = function Traced t -> Some t | Warmup | Timed -> None

type cell = {
  label : string;
  group : string;  (** quorum family of the cell ("flat", "htriang", "hgrid"), or "" *)
  attempted : int;  (** client ops issued (1 for an analysis unit) *)
  completed : int;
  horizon : float;  (** simulated time; 0 when nothing is simulated *)
  latencies : float list;  (** [finished - started] of store / reconfig history hops *)
  wall : float;  (** host seconds of the whole cell, set by [timed] *)
  fingerprint : string Lazy.t;
      (** every simulated report field and history hop; forced after
          the rep's clock stops *)
  problems : string list;  (** failed correctness checks *)
  counts : (string * float) list;  (** additive per-layer counts *)
}

type instance = {
  run : mode -> cell list;
  pooled : (unit -> cell list) option;
      (** one rep on a pool of min(2, cores) domains, for a workload
          whose measured reps run on one; its digest must equal theirs,
          and no end-to-end metric comes from it *)
  release : unit -> unit;
      (** frees what [setup] holds (the analysis pool); a traced rep
          builds its own *)
}

type t = { name : string; setup : size -> seed:int -> instance }

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg
let system spec = ok_or_fail (Core.Registry.build spec)

(* --- Shared cell plumbing --------------------------------------------- *)

let fingerprint head hops =
  lazy
    (let b = Buffer.create 65536 in
     Buffer.add_string b head;
     List.iter
       (fun (h : TA.hop) ->
         Printf.bprintf b "%d,%d,%b,%d,%h,%h,%d;" h.TA.client h.TA.key
           h.TA.is_write h.TA.version h.TA.started h.TA.finished h.TA.span)
       hops;
     Buffer.contents b)

let latencies hops = List.map (fun (h : TA.hop) -> h.TA.finished -. h.TA.started) hops

let check cond msg = if cond then [ msg ] else []

let timed f =
  let t0 = Tracer.now () in
  let c = f () in
  { c with wall = Tracer.now () -. t0 }

(* The auditor is part of the chaos-mix workload (users run it on every
   chaos history); its cost grows superlinearly with history length.

   Only the guarantees the protocols claim fail a run: a regular
   register promises that a read sees every write that finished before
   it started (stale-read, and read-your-writes as its special case).
   It does not promise monotonic reads — a write that timed out after
   reaching some replicas stays concurrent with every later read, so
   two reads may see it and then miss it.  Those are counted instead
   ("monotonic_reads" in the cell's counts). *)
let claimed (v : TA.violation) = v.TA.check <> "monotonic-reads"

let audit tr ~label hops =
  Tracer.span tr ("audit:" ^ label) (fun () ->
      let t0 = Tracer.now () in
      let a = TA.audit_history hops in
      Option.iter
        (fun t ->
          Tracer.add_value t "obs.trace_analysis.audit_s" (Tracer.now () -. t0);
          Tracer.add_value t "obs.trace_analysis.audit_hops"
            (float_of_int (List.length hops)))
        tr;
      let broken, unclaimed = List.partition claimed a.TA.violations in
      ( List.map
          (fun (v : TA.violation) ->
            Printf.sprintf "%s: %s: %s" label v.TA.check v.TA.detail)
          broken,
        [ ("monotonic_reads", float_of_int (List.length unclaimed)) ] ))

(* Checks of every cell with a history: the protocol's own stale-read
   counter, the event budget and (when [audited]) the auditor.
   Returns the failures and the counts to add to the cell. *)
let history_checks ?(audited = true) tr ~label ~stale ~budget hops =
  let broken, counts = if audited then audit tr ~label hops else ([], []) in
  ( check (stale > 0) (Printf.sprintf "%s: %d stale reads" label stale)
    @ check budget (label ^ ": event budget hit")
    @ broken,
    counts )

(* --- store-read / store-write ----------------------------------------- *)

(* Closed loop, n = 15, one session per node with window 6, batches of
   4 flushed after 0.25, calm network; three arms: flat majority(15),
   h-triang(15) and the sharded h-grid (three shards). *)
let store ~read_fraction ~fsync size ~seed =
  let arms = ok_or_fail (T.arms ~n:15 ()) in
  let scenario =
    {
      C.label = "closed";
      horizon = size.store_horizon;
      plan = { C.calm with fsync };
    }
  in
  let run mode =
    let tr = tracer mode in
    List.map2
      (fun group (arm : T.arm) ->
        timed @@ fun () -> Tracer.cell tr ("arm:" ^ arm.T.arm_label) (fun obs ->
            let r, st =
              T.run_h ~seed ~window:6 ~batch_size:4 ~batch_delay:0.25
                ~read_fraction ?router:arm.T.router ?obs
                ~read_system:(Tracer.wrap tr arm.T.read_sys)
                ~write_system:(Tracer.wrap tr arm.T.write_sys)
                ~name:arm.T.arm_label scenario
            in
            let hops = Store.history st in
            let head =
              Printf.sprintf "%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%h|%h|%h|%d|%d|%d|%d|%d|%d|%b|"
              r.T.system r.T.mode r.T.n r.T.shards r.T.issued r.T.completed
              r.T.failed r.T.shed r.T.batches r.T.batched_ops r.T.ops_per_sec
              r.T.mean_latency r.T.p95_latency r.T.peak_backlog
              r.T.final_backlog r.T.retransmissions r.T.stale_reads
              (Store.reads_ok st) (Store.writes_ok st) r.T.budget_hit
            in
            let label = arm.T.arm_label in
            (* Every rep replays the warm-up's history exactly (the
               digest check), so one audit covers them all. *)
            let problems, audit_counts =
              history_checks tr ~label ~stale:r.T.stale_reads
                ~budget:r.T.budget_hit hops
                ~audited:(match mode with Warmup -> true | Timed | Traced _ -> false)
            in
            {
              label;
              group;
              attempted = r.T.issued;
              completed = r.T.completed;
              horizon = size.store_horizon;
              latencies = latencies hops;
              wall = 0.0;
              fingerprint = fingerprint head hops;
              problems;
              counts = ("writes", float_of_int (Store.writes_ok st)) :: audit_counts;
            }))
      [ "flat"; "htriang"; "hgrid" ] arms
  in
  { run; pooled = None; release = ignore }

let store_read =
  { name = "store-read"; setup = store ~read_fraction:0.9 ~fsync:0.0 }

let store_write =
  { name = "store-write"; setup = store ~read_fraction:0.1 ~fsync:0.2 }

(* --- chaos-mix --------------------------------------------------------- *)

let chaos_labels = [ "loss+burst"; "amnesia"; "churn" ]

(* Fault schedules per chaos-mix rep.  The seed draws the schedules,
   and a rep's cost per op follows them: over seeds 1-10, one schedule
   per rep gave an allocation-per-op spread of 0.064 across seeds, two
   gave 0.049.  Schedule [j] of seed [s] uses seed [2s + j], so no two
   seeds share one. *)
let chaos_schedules = 2

(* Open loop at the chaos runners' Poisson rates.  Mutex and store
   cells on three quorum families, majority -> h-triang reconfiguration,
   and the membership register at churn rate 0.18 in timed-quorum and
   detector-driven modes; every store and reconfig history is
   audited.  Every cell runs once per schedule. *)
let chaos size ~seed:base =
  let scenarios n =
    List.map (C.scenario_of_label ~n ~horizon:size.chaos_horizon) chaos_labels
  in
  let families =
    List.map
      (fun (group, mutex_spec, read_spec, write_spec, name) ->
        let mutex_sys = system mutex_spec in
        ( group,
          mutex_sys,
          (system read_spec, system write_spec, name),
          scenarios mutex_sys.Quorum.System.n ))
      [
        ("flat", "majority(15)", "majority(15)", "majority(15)", "majority(15)");
        ("htriang", "htriang(15)", "htriang(15)", "htriang(15)", "htriang(15)");
        ( "hgrid",
          "hgrid(4x4)",
          "hgrid-read(4x4)",
          "hgrid-write(4x4)",
          "hgrid-r/w(4x4)" );
      ]
  in
  let initial = system "majority(15)" and next = system "htriang(15)" in
  let reconfig_scenarios = scenarios 15 in
  let churn_scenario =
    {
      C.label = "rate=0.18";
      horizon = size.churn_horizon;
      plan =
        { C.calm with loss = 0.02; churn_sustained = Some (0.18, 130.0) };
    }
  in
  let schedule mode seed =
    let tr = tracer mode in
    let wrap = Tracer.wrap tr in
    let mutex_cell group sys (sc : C.scenario) =
      let label = Printf.sprintf "mutex:%s:%s" sys.Quorum.System.name sc.C.label in
      timed @@ fun () -> Tracer.cell tr label (fun obs ->
          let r = C.run_mutex ~seed ?obs ~system:(wrap sys) sc in
          let entries = float_of_int r.C.entries in
          {
            label;
            group;
            attempted = r.C.issued;
            completed = r.C.entries;
            horizon = sc.C.horizon;
            latencies = [];
            wall = 0.0;
            fingerprint =
              Lazy.from_val
              @@ Printf.sprintf "%s|%d|%d|%d|%d|%d|%d|%d|%d|%h|%h|%b" label
                r.C.issued r.C.entries r.C.violations r.C.unavailable
                r.C.reselections r.C.abandoned r.C.dead_letters
                r.C.retransmissions r.C.mean_wait r.C.msgs_per_entry
                r.C.budget_hit;
            problems =
              check (r.C.violations > 0)
                (Printf.sprintf "%s: %d mutex violations" label r.C.violations)
              @ check r.C.budget_hit (label ^ ": event budget hit");
            counts =
              [
                ("mutex.issued", float_of_int r.C.issued);
                ("mutex.entries", entries);
                ("mutex.wait_sum", r.C.mean_wait *. entries);
                ("mutex.msgs", r.C.msgs_per_entry *. entries);
              ];
          })
    in
    let store_cell group (rs, ws, name) (sc : C.scenario) =
      let label = Printf.sprintf "store:%s:%s" name sc.C.label in
      timed @@ fun () -> Tracer.cell tr label (fun obs ->
          let r, st =
            C.run_store_h ~seed ?obs ~read_system:(wrap rs)
              ~write_system:(wrap ws) ~name sc
          in
          let hops = Store.history st in
          let problems, audit_counts =
            history_checks tr ~label ~stale:r.C.stale_reads ~budget:r.C.budget_hit hops
          in
          let head =
            Printf.sprintf "%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%h|%b|" label
              r.C.issued r.C.reads_ok r.C.writes_ok r.C.unavailable r.C.timeouts
              r.C.retried r.C.stale_reads r.C.rejoins r.C.rejoin_refusals
              r.C.dead_letters r.C.retransmissions r.C.mean_latency r.C.budget_hit
          in
          {
            label;
            group;
            attempted = r.C.issued;
            completed = r.C.reads_ok + r.C.writes_ok;
            horizon = sc.C.horizon;
            latencies = latencies hops;
            wall = 0.0;
            fingerprint = fingerprint head hops;
            problems;
            counts = ("writes", float_of_int r.C.writes_ok) :: audit_counts;
          })
    in
    let reconfig_cell (sc : C.scenario) =
      let name = "majority->htriang" in
      let label = Printf.sprintf "reconfig:%s:%s" name sc.C.label in
      timed @@ fun () -> Tracer.cell tr label (fun obs ->
          let r, rc =
            C.run_reconfig_h ~seed ?obs ~initial:(wrap initial)
              ~next:(wrap next) ~name sc
          in
          let hops = Protocols.Reconfig.history rc in
          let problems, audit_counts =
            history_checks tr ~label ~stale:r.C.stale_reads ~budget:r.C.budget_hit hops
          in
          let head =
            Printf.sprintf "%s|%d|%d|%d|%d|%d|%d|%d|%d|%b|" label r.C.issued
              r.C.reads_ok r.C.writes_ok r.C.retries r.C.failed r.C.stale_reads
              r.C.epoch_switches r.C.final_epoch r.C.budget_hit
          in
          {
            label;
            group = "";
            attempted = r.C.issued;
            completed = r.C.reads_ok + r.C.writes_ok;
            horizon = sc.C.horizon;
            latencies = latencies hops;
            wall = 0.0;
            fingerprint = fingerprint head hops;
            problems;
            counts =
              [
                ("reconfig.issued", float_of_int r.C.issued);
                ("reconfig.failed", float_of_int r.C.failed);
                ("reconfig.epoch_switches", float_of_int r.C.epoch_switches);
                ("writes", float_of_int r.C.writes_ok);
              ]
              @ audit_counts;
          })
    in
    let churn_cell (mode, mname) =
      let label = Printf.sprintf "churn:%s:%s" mname churn_scenario.C.label in
      timed @@ fun () -> Tracer.cell tr label (fun obs ->
          let r, ms =
            C.run_churn_h ~seed ?obs ~rate:2.0 ~op_timeout:30.0 ~rows:5
              ~period:8.0 ~lease:3.0 ~mode ~universe:30 churn_scenario
          in
          let rc = Protocols.Membership.reconfig ms in
          let hops = Protocols.Reconfig.history rc in
          let problems, audit_counts =
            history_checks tr ~label ~stale:r.C.stale_reads ~budget:r.C.budget_hit hops
          in
          let head =
            Printf.sprintf
              "%s|%d|%d|%d|%d|%h|%d|%d|%d|%d|%d|%d|%d|%d|%d|%h|%d|%b|" label
              r.C.issued r.C.ok r.C.failed r.C.crash_kills r.C.availability
              r.C.retries r.C.stale_reads r.C.epoch_switches r.C.proposals
              r.C.grows r.C.shrinks r.C.replacements r.C.lease_refusals
              r.C.false_evictions r.C.switch_downtime r.C.final_members
              r.C.budget_hit
          in
          let key k = Printf.sprintf "membership.%s.%s" mname k in
          {
            label;
            group = "";
            attempted = r.C.issued;
            completed = r.C.ok;
            horizon = churn_scenario.C.horizon;
            latencies = latencies hops;
            wall = 0.0;
            fingerprint = fingerprint head hops;
            problems;
            counts =
              [
                (key "ok", float_of_int r.C.ok);
                (* availability's base: a client dying mid-op is not a
                   refusal by the service *)
                (key "asked", float_of_int (r.C.issued - r.C.crash_kills));
                ("membership.switch_downtime", r.C.switch_downtime);
                ("membership.false_evictions", float_of_int r.C.false_evictions);
                ("membership.lease_refusals", float_of_int r.C.lease_refusals);
                ("writes", float_of_int (Protocols.Reconfig.writes_ok rc));
              ]
              @ audit_counts;
          })
    in
    List.concat_map
      (fun (group, mutex_sys, _, scs) ->
        List.map (mutex_cell group mutex_sys) scs)
      families
    @ List.concat_map
        (fun (group, _, pair, scs) -> List.map (store_cell group pair) scs)
        families
    @ List.map reconfig_cell reconfig_scenarios
    @ List.map churn_cell [ (C.Timed, "timed"); (C.Fd, "fd") ]
  in
  let run mode =
    List.concat_map
      (fun j -> schedule mode ((chaos_schedules * base) + j))
      (List.init chaos_schedules Fun.id)
  in
  { run; pooled = None; release = ignore }

let chaos_mix = { name = "chaos-mix"; setup = chaos }

(* --- analysis ---------------------------------------------------------- *)

let family spec =
  match Core.Registry.parse_spec spec with Ok (f, _) -> f | Error msg -> failwith msg

(* The construction's closed-form failure probability, where the
   library has one for the spec's family. *)
let closed_form spec =
  match Core.Registry.parse_spec spec with
  | Ok ("grid-rw", [ d ]) ->
      Scanf.sscanf d "%dx%d" (fun rows cols ->
          Some
            (fun p ->
              Systems.Grid.failure_probability ~rows ~cols
                Systems.Grid.Read_write ~p))
  | Ok ("majority", [ k ]) ->
      let n = int_of_string k in
      Some (fun p -> Systems.Majority.failure_probability ~n ~p)
  | Ok ("htriang", [ k ]) ->
      let rows = Systems.Triangle.rows_for (int_of_string k) in
      let tri = Core.Htriang.standard ~rows () in
      Some (fun p -> Core.Htriang.failure_probability tri ~p)
  | _ -> None

let read_fractions = [ 0.5; 0.9; 0.99 ]

(* Quorum lists larger than this are left out of the LP timing sample:
   majority(15) alone has 6435 quorums. *)
let lp_quorum_cap = 1000

(* 2^n scans of grid-rw(4x6) and majority(24) (native mask path),
   htgrid(4x5) (mask derived from [avail], ~20x slower per live-set) and
   htriang(21); then the n = 15 optimizer sweep at three read
   fractions, all through an [Exec.Pool].

   The warm-up, timed and traced reps run on one domain; [pooled] runs
   the rep once more on min(2, cores) domains, and its digest must
   equal theirs (the "pooled equals jobs = 1" check).  Measured reps
   stay on one domain because a second domain shares its core with
   whatever else the machine runs: on a 2-vCPU VM the two-domain rep
   time drifted 31% between two sets of runs ten minutes apart, the
   one-domain workloads at most 9%.  The warm-up stays on one domain
   too, so the heap's peak it sets does not depend on how two domains
   interleave. *)
let analysis size ~seed =
  let jobs = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let scans =
    List.map
      (fun spec -> (spec, family spec, system spec, closed_form spec))
      size.exact
  in
  let workloads =
    List.map
      (fun fr -> ok_or_fail (Analysis.Workload.make ~read_fraction:fr ()))
      read_fractions
  in
  let n = size.sweep_n and trials = size.sweep_trials in
  let candidates = Analysis.Optimizer.candidates ~n in
  let pool = Exec.Pool.create ~name:"e2e" ~jobs:1 () in
  let exact_cell tr pool (spec, fam, sys, cf) =
    let label = "exact:" ^ spec in
    timed @@ fun () -> Tracer.span tr label (fun () ->
        let w0 = match tr with Some _ -> (Gc.stat ()).Gc.minor_words | None -> 0.0 in
        let t0 = Tracer.now () in
        let poly = Analysis.Failure.exact_poly ~pool sys in
        let dt = Tracer.now () -. t0 in
        let sets = Float.pow 2.0 (float_of_int sys.Quorum.System.n) in
        Option.iter
          (fun t ->
            let words = (Gc.stat ()).Gc.minor_words -. w0 in
            Tracer.add_value t
              (Printf.sprintf "analysis.exact.%s.ns_per_set" fam)
              (dt *. 1e9 /. sets);
            Tracer.add_value t "analysis.exact.words" words;
            Tracer.add_value t "analysis.exact.sets" sets)
          tr;
        let problems =
          match cf with
          | None -> []
          | Some f ->
              (* Relative: majority(24) fails with probability ~5e-7 at
                 p = 0.1, so an absolute 1e-9 would let a 0.1% error
                 through. *)
              let exact = Quorum.Failure_poly.eval poly ~p:0.1 and closed = f 0.1 in
              check
                (Float.abs (exact -. closed) > 1e-9 *. Float.abs closed)
                (Printf.sprintf "%s: exact %.17g vs closed form %.17g at p=0.1"
                   label exact closed)
        in
        {
          label;
          group = "";
          attempted = 1;
          completed = 1;
          horizon = 0.0;
          latencies = [];
          wall = 0.0;
          fingerprint =
            lazy
              (String.concat "|"
                 (label
                 :: List.init (sys.Quorum.System.n + 1) (fun k ->
                        Printf.sprintf "%h" (Quorum.Failure_poly.fail_count poly k))));
          problems;
          counts = [];
        })
  in
  let sweep_cell tr pool (w : Analysis.Workload.t) =
    let label = Printf.sprintf "sweep:n=%d,fr=%g" n w.Analysis.Workload.read_fraction in
    timed @@ fun () -> Tracer.span tr label (fun () ->
        let t0 = Tracer.now () in
        let r =
          Analysis.Optimizer.sweep ~pool ~trials ~seed ~candidates ~workload:w ~n ()
        in
        Option.iter
          (fun t ->
            Tracer.add_value t "analysis.optimizer.sweep_s" (Tracer.now () -. t0))
          tr;
        let fingerprint, problems =
          match r with
          | Ok report ->
              (lazy (label ^ "|" ^ Analysis.Optimizer.render report), [])
          | Error msg -> (Lazy.from_val label, [ label ^ ": " ^ msg ])
        in
        {
          label;
          group = "";
          attempted = 1;
          completed = 1;
          horizon = 0.0;
          latencies = [];
          wall = 0.0;
          fingerprint;
          problems;
          counts = [];
        })
  in
  let cells tr pool =
    List.map (exact_cell tr pool) scans @ List.map (sweep_cell tr pool) workloads
  in
  (* Traced rep only: the sequential cost of each candidate evaluation
     and of the mixed read/write LP on its quorum lists. *)
  let candidate_timings t =
    let quorum_lists (c : Analysis.Optimizer.candidate) =
      match
        ( Result.bind (Core.Registry.build c.read_spec) Quorum.System.quorums,
          Result.bind (Core.Registry.build c.write_spec) Quorum.System.quorums )
      with
      | Ok reads, Ok writes
        when List.length reads <= lp_quorum_cap
             && List.length writes <= lp_quorum_cap ->
          Some (reads, writes)
      | _ -> None
    in
    let lists = List.filter_map quorum_lists candidates in
    List.iter
      (fun (w : Analysis.Workload.t) ->
        List.iter
          (fun (c : Analysis.Optimizer.candidate) ->
            Tracer.span (Some t) ("evaluate:" ^ c.label) (fun () ->
                let t0 = Tracer.now () in
                ignore (Analysis.Optimizer.evaluate ~trials ~seed ~workload:w c);
                Tracer.add_sample t "analysis.optimizer.evaluate_ms"
                  ((Tracer.now () -. t0) *. 1e3)))
          candidates;
        List.iter
          (fun (reads, writes) ->
            let t0 = Tracer.now () in
            ignore
              (Analysis.Optimizer.mixed_load
                 ~read_fraction:w.Analysis.Workload.read_fraction ~n ~reads
                 ~writes);
            Tracer.add_sample t "lp.mixed_load_ms" ((Tracer.now () -. t0) *. 1e3))
          lists)
      workloads
  in
  let run = function
    | Warmup | Timed -> cells None pool
    | Traced t ->
        let obs = Obs.create ~profile:true () in
        let m = Obs.metrics obs in
        let out =
          Exec.Pool.with_pool ~name:"e2e" ~metrics:m ~prof:(Obs.prof obs) ~jobs:1
            (cells (Some t))
        in
        let chunk_ms = Obs.Metrics.histogram m "exec.chunk_ms" in
        List.iter
          (fun (name, q) ->
            Option.iter (Tracer.add_value t name)
              (Obs.Metrics.percentile ~labels:[ ("pool", "e2e") ] chunk_ms q))
          [ ("exec.chunk_ms.p50", 0.5); ("exec.chunk_ms.p90", 0.9) ];
        Tracer.absorb t obs;
        candidate_timings t;
        out
  in
  {
    run;
    pooled = Some (fun () -> Exec.Pool.with_pool ~jobs (cells None));
    release = (fun () -> Exec.Pool.shutdown pool);
  }

let analysis_w = { name = "analysis"; setup = analysis }

let all = [ store_read; store_write; chaos_mix; analysis_w ]
let find name = List.find_opt (fun w -> w.name = name) all
