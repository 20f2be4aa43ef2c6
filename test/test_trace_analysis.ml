(* Span tracing and trace analysis: span-tree well-formedness, ring
   wrap-around safety of the causality check, critical-path latency
   breakdowns (which must partition the end-to-end latency exactly),
   the consistency auditor (sound on clean histories, witnessing on a
   deliberately stale fixture), the prometheus/diff/reservoir metrics
   surface and the run-report dashboard. *)

module M = Obs.Metrics
module T = Obs.Trace
module S = Obs.Span
module Ta = Obs.Trace_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_str = Alcotest.(check string)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* --- Span trees ------------------------------------------------------ *)

let test_span_tree_well_formed () =
  let s = S.create () in
  let root = S.start s ~time:1.0 ~node:0 "op" in
  let child = S.start s ~time:2.0 ~node:1 ~parent:root "attempt" in
  let leaf = S.start s ~time:3.0 ~node:2 ~parent:child "fsync" in
  check_int "three spans" 3 (S.count s);
  check_int "three open" 3 (S.open_count s);
  check_int "root of leaf" root (S.get_exn s leaf).S.root;
  check_int "parent of leaf" child (S.get_exn s leaf).S.parent;
  S.finish s ~time:4.0 leaf;
  S.finish s ~time:5.0 child;
  S.finish s ~time:6.0 ~status:(S.Error "late") root;
  check_int "none open" 0 (S.open_count s);
  check "validates clean" true (S.validate s = []);
  check_float "leaf duration" 1.0 (S.duration (S.get_exn s leaf));
  check_int "one root" 1 (List.length (S.roots s));
  check_int "root has one child" 1 (List.length (S.children s root));
  check_str "error status renders" "error:late"
    (S.status_name (S.Error "late"))

let test_span_finish_idempotent () =
  let s = S.create () in
  let id = S.start s ~time:0.0 ~node:0 "op" in
  S.finish s ~time:2.0 ~status:S.Ok id;
  (* Second close loses: first close wins, including its status. *)
  S.finish s ~time:9.0 ~status:(S.Error "late") id;
  let sp = S.get_exn s id in
  check_float "first end wins" 2.0 sp.S.end_time;
  check "first status wins" true (sp.S.status = S.Ok)

let test_span_child_may_outlive_parent () =
  (* A replica-side fsync span can legally end after the quorum-answered
     root: validate must allow late children (but never end < start). *)
  let s = S.create () in
  let root = S.start s ~time:0.0 ~node:0 "op" in
  let child = S.start s ~time:1.0 ~node:1 ~parent:root "fsync" in
  S.finish s ~time:2.0 root;
  S.finish s ~time:5.0 child;
  check "late child validates" true (S.validate s = [])

let test_span_errors () =
  let s = S.create () in
  check "unknown parent raises" true
    (raises_invalid (fun () ->
         ignore (S.start s ~time:0.0 ~node:0 ~parent:42 "op")));
  let id = S.start s ~time:3.0 ~node:0 "op" in
  check "end before start raises" true
    (raises_invalid (fun () -> S.finish s ~time:1.0 id));
  check "open status raises" true
    (raises_invalid (fun () -> S.finish s ~time:4.0 ~status:S.Open id))

(* --- Causality check under ring wrap-around -------------------------- *)

(* Each op is a fresh monotone message id: matched ops record Send then
   Deliver, orphans record only the Deliver.  With no eviction the
   check must report exactly the orphans; after wrap it may miss
   orphans (their cutoff is gone) but must never report a deliver whose
   send was merely evicted. *)
let causality_wrap_safe =
  QCheck.Test.make ~name:"causality check: exact when dropped=0, no false \
                          positives after wrap"
    ~count:500
    QCheck.(pair (2 -- 64) (list_of_size Gen.(1 -- 120) bool))
    (fun (capacity, ops) ->
      let t = T.create ~capacity () in
      List.iteri
        (fun i orphan ->
          let time = float_of_int i in
          if not orphan then
            T.record t ~time ~node:0 ~peer:1 ~msg_id:i ~span:(-1) ~label:""
              T.Send;
          T.record t ~time ~node:1 ~peer:0 ~msg_id:i ~span:(-1) ~label:""
            T.Deliver)
        ops;
      let orphans =
        List.filteri (fun _ o -> o) ops |> List.length
      in
      let reported = T.causality_violations t in
      let genuine =
        List.for_all
          (fun (e : T.event) ->
            e.T.kind = T.Deliver && List.nth ops e.T.msg_id)
          reported
      in
      if T.dropped t = 0 then
        genuine && List.length reported = orphans
      else genuine)

let test_dropped_counter_wired () =
  (* Obs.create meters ring overwrites into obs.trace.dropped. *)
  let obs = Obs.create ~trace_capacity:4 () in
  let tr = Obs.trace obs in
  for i = 0 to 9 do
    T.record tr ~time:(float_of_int i) ~node:0 ~peer:(-1) ~msg_id:(-1)
      ~span:(-1) ~label:"" T.Note
  done;
  check_int "ring dropped 6" 6 (T.dropped tr);
  let dropped = M.counter (Obs.metrics obs) "obs.trace.dropped" in
  check_int "counter mirrors ring" 6 (M.counter_value dropped)

(* --- Critical-path breakdowns over a real run ------------------------ *)

let store_run ~scenario =
  let system = Core.Registry.build_exn "htgrid(4x4)" in
  let obs = Obs.create ~trace_capacity:(1 lsl 18) () in
  let s =
    Protocols.Chaos.scenario_of_label ~n:system.Quorum.System.n ~horizon:120.0
      scenario
  in
  let _r, store =
    Protocols.Chaos.run_store_h ~seed:42 ~obs ~read_system:system
      ~write_system:system ~name:system.Quorum.System.name s
  in
  (obs, store)

let test_breakdown_partitions_latency () =
  let obs, _store = store_run ~scenario:"restart" in
  let profiles =
    Ta.profile_ops ~trace:(Obs.trace obs) ~spans:(Obs.spans obs) ()
  in
  check "profiled some ops" true (profiles <> []);
  check "all chains complete (nothing evicted)" true
    (List.for_all (fun (p : Ta.op_profile) -> p.Ta.complete) profiles);
  List.iter
    (fun (p : Ta.op_profile) ->
      let total = Ta.breakdown_total p.Ta.breakdown in
      check "components sum to latency" true
        (abs_float (total -. p.Ta.latency) <= 1e-6 +. (0.01 *. p.Ta.latency));
      check "no negative component" true
        (p.Ta.breakdown.Ta.network >= 0.0
        && p.Ta.breakdown.Ta.fsync >= 0.0
        && p.Ta.breakdown.Ta.queueing >= 0.0
        && p.Ta.breakdown.Ta.retransmit >= 0.0))
    profiles;
  (* The restart scenario has fsync latency 0.5, so write critical
     paths must show fsync time. *)
  let by = Ta.by_name profiles in
  let writes = List.assoc "store.write" by in
  let agg = Ta.aggregate writes in
  check "writes spent time on fsync" true (agg.Ta.total.Ta.fsync > 0.0);
  check_int "aggregate counts all" (List.length writes) agg.Ta.count

let test_span_trees_from_run () =
  let obs, store = store_run ~scenario:"loss+burst" in
  let sp = Obs.spans obs in
  check "run's span forest validates" true (S.validate sp = []);
  check "spans were opened" true (S.count sp > 0);
  (* Every history hop names a finished root span of the right name. *)
  List.iter
    (fun (h : Ta.hop) ->
      let root = S.get_exn sp h.Ta.span in
      check_int "hop span is a root" (-1) root.S.parent;
      check_str "root name matches kind"
        (if h.Ta.is_write then "store.write" else "store.read")
        root.S.name;
      check "root finished" true (not (S.is_open root));
      check "op has trace events" true
        (Ta.events_of_op ~trace:(Obs.trace obs) ~spans:sp h.Ta.span <> []))
    (Protocols.Replicated_store.history store)

(* --- Consistency auditor --------------------------------------------- *)

let test_audit_clean_run_passes () =
  let obs, store = store_run ~scenario:"partition" in
  let audit =
    Ta.audit_history ~trace:(Obs.trace obs) ~spans:(Obs.spans obs)
      (Protocols.Replicated_store.history store)
  in
  check "clean run passes" true (Ta.passed audit);
  check_str "verdict" "pass" (Ta.verdict audit);
  check "reads were checked" true (audit.Ta.reads > 0);
  check "writes were checked" true (audit.Ta.writes > 0)

let hop ?(client = 0) ?(key = 0) ?(span = -1) ~is_write ~version started
    finished =
  { Ta.client; key; is_write; version; started; finished; span }

let test_audit_stale_read_witnessed () =
  (* Deliberate fixture: a write to key 7 finishes at t=2, a later read
     (t=3..4) observes version 0 — a stale read with causal evidence. *)
  let spans = S.create () in
  let trace = T.create ~capacity:64 () in
  let w = S.start spans ~time:0.0 ~node:1 "store.write" in
  T.record trace ~time:0.5 ~node:1 ~peer:2 ~msg_id:10 ~span:w ~label:""
    T.Send;
  T.record trace ~time:1.0 ~node:2 ~peer:1 ~msg_id:10 ~span:w ~label:""
    T.Deliver;
  S.finish spans ~time:2.0 w;
  let r = S.start spans ~time:3.0 ~node:3 "store.read" in
  T.record trace ~time:3.5 ~node:3 ~peer:2 ~msg_id:11 ~span:r ~label:""
    T.Send;
  S.finish spans ~time:4.0 r;
  let history =
    [
      hop ~client:1 ~key:7 ~span:w ~is_write:true ~version:1 0.0 2.0;
      hop ~client:3 ~key:7 ~span:r ~is_write:false ~version:0 3.0 4.0;
    ]
  in
  let audit = Ta.audit_history ~trace ~spans history in
  check "fixture fails" false (Ta.passed audit);
  check_str "verdict counts it" "FAIL (1 violations)" (Ta.verdict audit);
  match audit.Ta.violations with
  | [ v ] ->
      check_str "check name" "stale-read" v.Ta.check;
      check_int "offending read version" 0 v.Ta.offending.Ta.version;
      check "expected write attached" true
        (match v.Ta.expected with
        | Some e -> e.Ta.is_write && e.Ta.version = 1
        | None -> false);
      (* The witness chain holds the surviving events of both ops. *)
      check_int "witness chain" 3 (List.length v.Ta.witness);
      check "witness spans both ops" true
        (List.exists (fun (e : T.event) -> e.T.span = w) v.Ta.witness
        && List.exists (fun (e : T.event) -> e.T.span = r) v.Ta.witness)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_audit_session_guarantees () =
  (* read-your-writes: client 5's own write (v2, done at t=2) must be
     seen by its later read even though a bigger global version exists
     only concurrently. *)
  let ryw =
    Ta.audit_history
      [
        hop ~client:5 ~key:1 ~is_write:true ~version:2 0.0 2.0;
        hop ~client:5 ~key:1 ~is_write:false ~version:1 3.0 4.0;
      ]
  in
  check "ryw violation found" false (Ta.passed ryw);
  (* Monotonic reads: same client, same key, version going backwards
     across non-overlapping reads. *)
  let mono =
    Ta.audit_history
      [
        hop ~client:2 ~key:3 ~is_write:false ~version:4 0.0 1.0;
        hop ~client:2 ~key:3 ~is_write:false ~version:3 2.0 3.0;
      ]
  in
  check "monotonic violation found" false (Ta.passed mono);
  check "named monotonic-reads" true
    (List.exists
       (fun (v : Ta.violation) -> v.Ta.check = "monotonic-reads")
       mono.Ta.violations);
  (* Overlapping ops are never flagged: the read starts before the
     write finishes, so either version is legitimate. *)
  let overlap =
    Ta.audit_history
      [
        hop ~client:1 ~key:0 ~is_write:true ~version:9 0.0 5.0;
        hop ~client:2 ~key:0 ~is_write:false ~version:0 4.0 6.0;
      ]
  in
  check "concurrent read not flagged" true (Ta.passed overlap)

(* The auditor as it was first written: every read folds over every
   write (resp. read), so it is quadratic in the history.  Kept as the
   oracle for the sorted-prefix auditor (without witnesses, which
   depend only on the offending and expected hops). *)
let quadratic_audit hops =
  let hops =
    List.sort (fun a b -> compare a.Ta.started b.Ta.started) hops
  in
  let reads = List.filter (fun h -> not h.Ta.is_write) hops in
  let writes = List.filter (fun h -> h.Ta.is_write) hops in
  let violations = ref [] in
  let add check detail offending expected =
    violations :=
      { Ta.check; detail; offending; expected; witness = [] } :: !violations
  in
  let last_write_before ?client key t =
    List.fold_left
      (fun best (w : Ta.hop) ->
        if
          w.key = key && w.finished < t
          && match client with None -> true | Some c -> w.client = c
        then
          match best with
          | Some (b : Ta.hop) when b.version >= w.version -> best
          | _ -> Some w
        else best)
      None writes
  in
  List.iter
    (fun (r : Ta.hop) ->
      (match last_write_before r.key r.started with
      | Some w when r.version < w.version ->
          add "stale-read"
            (Printf.sprintf
               "read of key %d by client %d returned version %d, but \
                version %d committed at t=%g, before the read started at \
                t=%g"
               r.key r.client r.version w.version w.finished r.started)
            r (Some w)
      | _ -> ());
      match last_write_before ~client:r.client r.key r.started with
      | Some w when r.version < w.version ->
          add "read-your-writes"
            (Printf.sprintf
               "client %d read version %d of key %d after its own write \
                of version %d finished at t=%g"
               r.client r.version r.key w.version w.finished)
            r (Some w)
      | _ -> ())
    reads;
  List.iter
    (fun (r : Ta.hop) ->
      let prior =
        List.fold_left
          (fun best (r' : Ta.hop) ->
            if
              r'.client = r.client && r'.key = r.key
              && r'.finished < r.started
            then
              match best with
              | Some (b : Ta.hop) when b.version >= r'.version -> best
              | _ -> Some r'
            else best)
          None reads
      in
      match prior with
      | Some p when r.version < p.version ->
          add "monotonic-reads"
            (Printf.sprintf
               "client %d observed version %d of key %d at t=%g after \
                observing version %d at t=%g"
               r.client r.version r.key r.started p.version p.finished)
            r (Some p)
      | _ -> ())
    reads;
  {
    Ta.reads = List.length reads;
    writes = List.length writes;
    violations = List.rev !violations;
  }

let stale_violations (a : Ta.audit) =
  List.length
    (List.filter (fun (v : Ta.violation) -> v.Ta.check = "stale-read")
       a.Ta.violations)

(* Few keys and clients, integer times and versions 0-4, so finishes
   tie with starts, versions repeat and every rule fires. *)
let history_gen =
  let open QCheck.Gen in
  let hop =
    map
      (fun ((client, key, is_write), (version, started, length)) ->
        hop ~client ~key ~is_write ~version (float_of_int started)
          (float_of_int (started + length)))
      (pair
         (triple (int_bound 2) (int_bound 2) bool)
         (triple (int_bound 4) (int_bound 20) (int_bound 5)))
  in
  list_size (int_bound 40) hop

let show_history hops =
  String.concat "; "
    (List.map
       (fun (h : Ta.hop) ->
         Printf.sprintf "%c c%d k%d v%d %g-%g"
           (if h.Ta.is_write then 'W' else 'R')
           h.Ta.client h.Ta.key h.Ta.version h.Ta.started h.Ta.finished)
       hops)

let auditor_matches_oracle =
  QCheck.Test.make ~count:1000
    ~name:"auditor = quadratic oracle on random histories"
    (QCheck.make ~print:show_history history_gen)
    (fun hops ->
      let audit = Ta.audit_history hops in
      audit = quadratic_audit hops
      && Ta.stale_reads hops = stale_violations audit
      && Ta.stale_reads (List.rev hops) = stale_violations audit)

let test_audit_boundary () =
  (* A write that finishes at the instant a read starts is concurrent
     with it: only a read starting later must see it. *)
  let write = hop ~client:1 ~is_write:true ~version:1 0.0 2.0 in
  let at = hop ~client:2 ~is_write:false ~version:0 2.0 3.0 in
  let after = hop ~client:3 ~is_write:false ~version:0 2.5 3.0 in
  check "read starting at the finish passes" true
    (Ta.passed (Ta.audit_history [ write; at ]));
  check_int "and is not counted" 0 (Ta.stale_reads [ write; at ]);
  check_int "a later read is" 1 (Ta.stale_reads [ write; at; after ]);
  check_int "one stale-read violation" 1
    (stale_violations (Ta.audit_history [ write; at; after ]))

let singletons n elements =
  List.map (fun e -> Quorum.Bitset.of_list n [ e ]) elements

let test_store_disjoint_quorums_stale () =
  (* Reads from {0}, writes to {1}: no read ever sees a write. *)
  let module Store = Protocols.Replicated_store in
  let read_system =
    Quorum.System.of_quorums ~name:"read {0}" ~n:2 (singletons 2 [ 0 ])
  in
  let write_system =
    Quorum.System.of_quorums ~name:"write {1}" ~n:2 (singletons 2 [ 1 ])
  in
  let engine = Sim.Engine.create ~seed:3 ~nodes:2 () in
  let store = Store.of_config engine ~read_system ~write_system () in
  Sim.Engine.schedule engine ~time:1.0 (fun () ->
      Store.write store ~client:0 ~key:4 ~value:9);
  List.iteri
    (fun client time ->
      Sim.Engine.schedule engine ~time (fun () ->
          Store.read store ~client:(client mod 2) ~key:4))
    [ 20.0; 40.0; 60.0 ];
  Sim.Engine.run engine;
  check_int "all reads completed" 3 (Store.reads_ok store);
  check_int "every read is stale" 3 (Store.stale_reads store);
  check_int "the auditor agrees" 3
    (stale_violations (Ta.audit_history (Store.history store)))

let test_register_disjoint_quorums_stale () =
  (* Two disjoint singleton quorums: a read that picks the other
     replica than the last write misses it. *)
  let module Rc = Protocols.Reconfig in
  let initial =
    Quorum.System.of_quorums ~name:"{0} or {1}" ~n:2 (singletons 2 [ 0; 1 ])
  in
  let engine = Sim.Engine.create ~seed:5 ~nodes:2 () in
  let rc = Rc.of_config engine ~initial () in
  for i = 0 to 19 do
    let time = 10.0 *. float_of_int i in
    Sim.Engine.schedule engine ~time (fun () ->
        if i mod 4 = 0 then Rc.write rc ~client:(i mod 2) ~value:i
        else Rc.read rc ~client:(i mod 2))
  done;
  Sim.Engine.run engine;
  let stale = Rc.stale_reads rc in
  check "some read is stale" true (stale > 0);
  check_int "the auditor agrees" stale
    (stale_violations (Ta.audit_history (Rc.history rc)))

(* --- Prometheus / diff / reservoir ----------------------------------- *)

let render_to_string emit =
  let path = Filename.temp_file "obs_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Sink.with_file path emit;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_prometheus_export () =
  let m = M.create () in
  let c = M.counter m ~help:"messages sent" "sim.messages_sent" in
  M.incr ~by:41 c;
  let g = M.gauge m "fd.suspected" in
  M.set ~labels:[ ("node", "3") ] g 1.0;
  let h = M.histogram m "store.op_latency" in
  List.iter (M.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let out = render_to_string (fun oc -> Obs.Sink.metrics_prometheus oc m) in
  check "counter renamed _total" true
    (contains ~needle:"sim_messages_sent_total 41" out);
  check "help line present" true
    (contains ~needle:"# HELP sim_messages_sent_total messages sent" out);
  check "type line present" true
    (contains ~needle:"# TYPE sim_messages_sent_total counter" out);
  check "gauge labelled" true
    (contains ~needle:"fd_suspected{node=\"3\"} 1" out);
  check "histogram as summary" true
    (contains ~needle:"# TYPE store_op_latency summary" out);
  check "median quantile" true
    (contains ~needle:"store_op_latency{quantile=\"0.5\"} 2" out);
  check "summary count" true
    (contains ~needle:"store_op_latency_count 4" out);
  check "summary sum" true (contains ~needle:"store_op_latency_sum 10" out)

let test_snapshot_diff () =
  let m = M.create () in
  let c = M.counter m "c" in
  let g = M.gauge m "g" in
  let h = M.histogram m "h" in
  M.incr ~by:5 c;
  M.set g 2.0;
  M.observe h 10.0;
  let before = M.snapshot m in
  M.incr ~by:3 c;
  M.observe h 20.0;
  let d = M.diff ~before ~after:(M.snapshot m) in
  (* The untouched gauge is omitted; counter and histogram report
     deltas. *)
  check_int "two changed cells" 2 (List.length d);
  List.iter
    (fun (s : M.sample) ->
      match s.M.value with
      | M.Counter n -> check_int "counter delta" 3 n
      | M.Histogram st ->
          check_int "hist delta n" 1 st.M.n;
          check_float "hist delta total" 20.0 st.M.total
      | M.Gauge _ -> Alcotest.fail "gauge should not appear")
    d;
  check_str "no-change render" "(no change)\n"
    (M.render_diff ~before:(M.snapshot m) ~after:(M.snapshot m))

let test_reservoir_histogram () =
  let m = M.create () in
  let h = M.histogram m ~max_samples:64 "capped" in
  (* Below the cap: exact percentiles, full retention. *)
  for i = 1 to 64 do
    M.observe h (float_of_int i)
  done;
  check_int "below cap keeps all" 64 (M.sample_count h);
  check_float "exact p50 below cap" 32.0 (M.percentile_or ~default:nan h 0.5);
  (* Above the cap: count/sum/min/max stay exact, retention is capped,
     and the sampled median stays inside the observed range. *)
  for i = 65 to 10_000 do
    M.observe h (float_of_int i)
  done;
  check_int "count exact above cap" 10_000 (M.count h);
  check_int "retention capped" 64 (M.sample_count h);
  check_float "sum exact" (float_of_int (10_000 * 10_001 / 2)) (M.sum h);
  (* min/max are surfaced through snapshots and stay exact. *)
  (match
     List.find_opt (fun (s : M.sample) -> s.M.name = "capped") (M.snapshot m)
   with
  | Some { M.value = M.Histogram st; _ } ->
      check_float "min exact" 1.0 st.M.min_v;
      check_float "max exact" 10_000.0 st.M.max_v
  | _ -> Alcotest.fail "capped histogram missing from snapshot");
  let p50 = M.percentile_or ~default:nan h 0.5 in
  check "sampled median in range" true (p50 >= 1.0 && p50 <= 10_000.0)

let reservoir_deterministic =
  QCheck.Test.make ~name:"reservoir sampling is deterministic" ~count:50
    QCheck.(list_of_size Gen.(100 -- 300) (float_bound_inclusive 100.0))
    (fun samples ->
      let run () =
        let m = M.create () in
        let h = M.histogram m ~max_samples:32 "det" in
        List.iter (M.observe h) samples;
        ( M.count h,
          M.sample_count h,
          M.percentile_or ~default:nan h 0.5,
          M.sum h )
      in
      run () = run ())

(* --- Run report ------------------------------------------------------- *)

let test_run_report_markdown () =
  let system = Core.Registry.build_exn "htgrid(4x4)" in
  let r =
    Protocols.Run_report.run ~horizon:120.0
      ~protocol:Protocols.Run_report.Store ~system ~scenario:"baseline" ()
  in
  let md = Protocols.Run_report.to_markdown r in
  check_int "pinned store seed" 42 r.Protocols.Run_report.seed;
  check "has latency section" true
    (contains ~needle:"## Operation latency" md);
  check "has store ops row" true (contains ~needle:"| store.read |" md);
  check "audit passes" true (contains ~needle:"**pass**" md);
  check "trace healthy" true (contains ~needle:"Causality: ok" md);
  check "metrics embedded" true (contains ~needle:"obs.trace.dropped" md)

let () =
  Alcotest.run "trace_analysis"
    [
      ( "spans",
        [
          Alcotest.test_case "well-formed tree" `Quick
            test_span_tree_well_formed;
          Alcotest.test_case "finish idempotent" `Quick
            test_span_finish_idempotent;
          Alcotest.test_case "late child ok" `Quick
            test_span_child_may_outlive_parent;
          Alcotest.test_case "errors" `Quick test_span_errors;
        ] );
      ( "wrap-around",
        [
          QCheck_alcotest.to_alcotest causality_wrap_safe;
          Alcotest.test_case "dropped counter" `Quick
            test_dropped_counter_wired;
        ] );
      ( "critical path",
        [
          Alcotest.test_case "breakdown partitions latency" `Quick
            test_breakdown_partitions_latency;
          Alcotest.test_case "span trees from run" `Quick
            test_span_trees_from_run;
        ] );
      ( "auditor",
        [
          Alcotest.test_case "clean run passes" `Quick
            test_audit_clean_run_passes;
          Alcotest.test_case "stale read witnessed" `Quick
            test_audit_stale_read_witnessed;
          Alcotest.test_case "session guarantees" `Quick
            test_audit_session_guarantees;
          Alcotest.test_case "finish at a read's start is concurrent" `Quick
            test_audit_boundary;
          QCheck_alcotest.to_alcotest auditor_matches_oracle;
          Alcotest.test_case "store over disjoint quorums" `Quick
            test_store_disjoint_quorums_stale;
          Alcotest.test_case "register over disjoint quorums" `Quick
            test_register_disjoint_quorums_stale;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "reservoir cap" `Quick test_reservoir_histogram;
          QCheck_alcotest.to_alcotest reservoir_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "markdown dashboard" `Quick
            test_run_report_markdown;
        ] );
    ]
