(* Observability layer tests: the typed metrics registry (counters,
   gauges, exact-sample histograms with labels), the trace ring and its
   causality check, the serialization sinks, and the end-to-end wiring
   through the engine and a chaos run. *)

module M = Obs.Metrics
module T = Obs.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_str = Alcotest.(check string)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* --- Histogram percentiles vs a sorted-list oracle ------------------- *)

let oracle_percentile samples q =
  (* Nearest-rank on the sorted sample list. *)
  let sorted = List.sort compare samples in
  let len = List.length sorted in
  let idx = min (len - 1) (max 0 (int_of_float (ceil (q *. float len)) - 1)) in
  List.nth sorted idx

let percentile_matches_oracle =
  QCheck.Test.make ~name:"histogram percentile = nearest-rank oracle"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (float_bound_inclusive 1000.0))
        (float_bound_inclusive 1.0))
    (fun (samples, q) ->
      QCheck.assume (samples <> []);
      let m = M.create () in
      let h = M.histogram m "oracle.hist" in
      List.iter (fun v -> M.observe h v) samples;
      match M.percentile h q with
      | None -> false
      | Some p -> p = oracle_percentile samples q)

let test_percentile_interleaved_reads () =
  (* Reads between writes must not corrupt later percentiles (the
     sorted cache is invalidated by each observe). *)
  let m = M.create () in
  let h = M.histogram m "interleave.hist" in
  M.observe h 5.0;
  check_float "p50 after one" 5.0 (M.percentile_or ~default:nan h 0.5);
  M.observe h 1.0;
  M.observe h 9.0;
  check_float "median of 1,5,9" 5.0 (M.percentile_or ~default:nan h 0.5);
  check_float "p0 is min" 1.0 (M.percentile_or ~default:nan h 0.0);
  check_float "p100 is max" 9.0 (M.percentile_or ~default:nan h 1.0);
  check_int "count" 3 (M.count h);
  check_float "sum" 15.0 (M.sum h);
  check_float "mean" 5.0 (M.mean h)

(* --- Labels ---------------------------------------------------------- *)

let test_labeled_counter_isolation () =
  let m = M.create () in
  let c = M.counter m "test.ops" in
  M.incr c ~labels:[ ("node", "1") ];
  M.incr c ~labels:[ ("node", "2") ] ~by:5;
  M.incr c;
  check_int "cell node=1" 1 (M.counter_value c ~labels:[ ("node", "1") ]);
  check_int "cell node=2" 5 (M.counter_value c ~labels:[ ("node", "2") ]);
  check_int "unlabeled cell" 1 (M.counter_value c);
  check_int "unwritten cell reads 0" 0
    (M.counter_value c ~labels:[ ("node", "99") ])

let test_label_order_canonicalized () =
  let m = M.create () in
  let c = M.counter m "test.multi" in
  M.incr c ~labels:[ ("a", "1"); ("b", "2") ];
  M.incr c ~labels:[ ("b", "2"); ("a", "1") ];
  check_int "both orders hit one cell" 2
    (M.counter_value c ~labels:[ ("b", "2"); ("a", "1") ]);
  let h = M.histogram m "test.lat" in
  M.observe h ~labels:[ ("op", "read"); ("node", "3") ] 1.0;
  check_int "histogram cell shared across orders" 1
    (M.count h ~labels:[ ("node", "3"); ("op", "read") ])

let test_registration_idempotent_and_kind_clash () =
  let m = M.create () in
  let c1 = M.counter m "dual.name" in
  let c2 = M.counter m "dual.name" in
  M.incr c1;
  M.incr c2;
  check_int "same family" 2 (M.counter_value c1);
  check "kind clash raises" true
    (raises_invalid (fun () -> ignore (M.histogram m "dual.name")));
  check "gauge clash raises" true
    (raises_invalid (fun () -> ignore (M.gauge m "dual.name")))

let test_gauge_last_wins () =
  let m = M.create () in
  let g = M.gauge m "test.level" in
  M.set g 3.0;
  M.set g 7.0;
  check_float "last write wins" 7.0 (M.gauge_value g);
  check_float "unwritten gauge is 0" 0.0
    (M.gauge_value g ~labels:[ ("node", "0") ])

let test_snapshot_deterministic () =
  let build () =
    let m = M.create () in
    let c = M.counter m "z.last" in
    M.incr c ~labels:[ ("node", "2") ];
    M.incr c ~labels:[ ("node", "10") ];
    ignore (M.gauge m "a.first");
    let h = M.histogram m "m.mid" in
    M.observe h 1.5;
    m
  in
  let s1 = M.snapshot (build ()) and s2 = M.snapshot (build ()) in
  check "snapshots identical" true (s1 = s2);
  let names = List.map (fun (s : M.sample) -> s.M.name) s1 in
  check "sorted by name" true (names = List.sort compare names);
  (* Snapshot emits cells only, so the never-written gauge family is
     absent there — but render still lists it as "(no data)". *)
  check "empty family has no cells" false
    (List.exists (fun (s : M.sample) -> s.M.name = "a.first") s1);
  let rendered = M.render (build ()) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "render lists the empty family" true (contains rendered "a.first");
  check "render marks it (no data)" true (contains rendered "(no data)")

(* --- Trace ring ------------------------------------------------------ *)

let test_trace_ring_eviction () =
  let t = T.create ~capacity:4 () in
  for i = 0 to 9 do
    T.record t ~time:(float i) ~node:i ~peer:(-1) ~msg_id:(-1) ~span:(-1)
      ~label:"" T.Note
  done;
  check_int "recorded counts everything" 10 (T.recorded t);
  check_int "length capped at capacity" 4 (T.length t);
  check_int "dropped = overflow" 6 (T.dropped t);
  let nodes = List.map (fun (e : T.event) -> e.T.node) (T.to_list t) in
  check "keeps the newest, oldest-first" true (nodes = [ 6; 7; 8; 9 ]);
  let seqs = List.map (fun (e : T.event) -> e.T.seq) (T.to_list t) in
  check "seq monotone" true (seqs = List.sort compare seqs);
  T.clear t;
  check_int "clear empties" 0 (T.length t)

let test_trace_capacity_zero_disables () =
  let t = T.create ~capacity:0 () in
  T.record t ~time:1.0 ~node:0 ~peer:(-1) ~msg_id:(-1) ~span:(-1) ~label:""
    T.Send;
  check_int "nothing recorded" 0 (T.recorded t);
  check_int "nothing held" 0 (T.length t)

let test_causality_detects_orphan () =
  let t = T.create ~capacity:64 () in
  T.record t ~time:0.0 ~node:0 ~peer:1 ~msg_id:1 ~span:(-1) ~label:"" T.Send;
  T.record t ~time:1.0 ~node:1 ~peer:0 ~msg_id:1 ~span:(-1) ~label:""
    T.Deliver;
  check "matched deliver passes" true (T.causality_violations t = []);
  (* A deliver whose send was never recorded is an orphan. *)
  T.record t ~time:2.0 ~node:1 ~peer:0 ~msg_id:7 ~span:(-1) ~label:""
    T.Deliver;
  let bad = T.causality_violations t in
  check_int "one orphan" 1 (List.length bad);
  check_int "orphan id" 7 (List.hd bad).T.msg_id

let test_full_ring_records_without_allocating () =
  let t = T.create ~capacity:8 () in
  for i = 0 to 7 do
    T.record t ~time:(float i) ~node:i ~peer:(-1) ~msg_id:(-1) ~span:(-1)
      ~label:"" T.Note
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    (* Arguments that vary with [i]: a constant would be preallocated
       and hide any boxing at the call. *)
    T.record t ~time:1.5 ~node:2 ~peer:i ~msg_id:(i + 1) ~span:(i + 2)
      ~label:"x" T.Send
  done;
  let w1 = Gc.minor_words () in
  check_float "minor words while overwriting" 0.0 (w1 -. w0);
  check_int "all overwrites counted" 10_000 (T.dropped t)

(* The ring against a list model: whatever was recorded, [to_list] is
   the newest [capacity] events, [iter] agrees, and causality verdicts
   match the model's, across any number of wrap-arounds. *)
let ring_matches_model =
  let ev =
    QCheck.Gen.(
      map
        (fun (k, node, id) ->
          let kind = [| T.Send; T.Deliver; T.Drop; T.Note |].(k) in
          (kind, node, id))
        (triple (int_bound 3) (int_bound 4) (int_bound 30)))
  in
  QCheck.Test.make ~name:"columnar ring matches a list model" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_range 1 16) (list_size (int_bound 60) ev)))
    (fun (cap, evs) ->
      let t = T.create ~capacity:cap () in
      let model =
        List.mapi
          (fun seq (kind, node, msg_id) ->
            let time = float_of_int seq /. 2.0 and label = string_of_int node in
            T.record t ~time ~node ~peer:(node + 1) ~msg_id ~span:(msg_id * 2)
              ~label kind;
            { T.seq; time; kind; node; peer = node + 1; msg_id;
              span = msg_id * 2; label })
          evs
      in
      let n = List.length model in
      let kept = List.filteri (fun i _ -> i >= n - cap) model in
      let iterated = ref [] in
      T.iter t (fun e -> iterated := e :: !iterated);
      let model_violations =
        let evicted = n > cap in
        List.filter
          (fun (e : T.event) ->
            let earlier_sends =
              List.filter
                (fun (s : T.event) -> s.kind = T.Send && s.seq < e.seq)
                kept
            in
            let oldest =
              List.fold_left
                (fun acc (s : T.event) -> min acc s.msg_id)
                max_int earlier_sends
            in
            e.kind = T.Deliver
            && (not
                  (List.exists
                     (fun (s : T.event) -> s.msg_id = e.msg_id)
                     earlier_sends))
            && not (evicted && e.msg_id < oldest))
          kept
      in
      T.to_list t = kept
      && List.rev !iterated = kept
      && T.dropped t = max 0 (n - cap)
      && T.causality_violations t = model_violations)

(* --- Engine integration ---------------------------------------------- *)

type msg = Ping | Pong

let probe_handlers : msg Sim.Engine.handlers =
  {
    on_message =
      (fun engine ~node ~src m ->
        match m with
        | Ping -> Sim.Engine.send engine ~src:node ~dst:src Pong
        | Pong -> ());
    on_timer = (fun _ ~node:_ ~tag:_ -> ());
    on_crash = (fun _ ~node:_ -> ());
    on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
  }

let test_engine_traces_message_lifecycle () =
  let obs = Obs.create () in
  let e = Sim.Engine.create ~seed:3 ~nodes:3 ~obs () in
  Sim.Engine.set_handlers e probe_handlers;
  Sim.Engine.send e ~src:0 ~dst:1 Ping;
  Sim.Engine.run e;
  let tr = Obs.trace obs in
  let count k =
    List.length
      (List.filter (fun (ev : T.event) -> ev.T.kind = k) (T.to_list tr))
  in
  check_int "two sends traced" 2 (count T.Send);
  check_int "two delivers traced" 2 (count T.Deliver);
  check "causality clean" true (T.causality_violations tr = []);
  let m = Obs.metrics obs in
  let sent = M.counter m "sim.messages_sent" in
  check_int "metric mirrors accessor" (Sim.Engine.messages_sent e)
    (M.counter_value sent)

let test_engine_deterministic_with_obs () =
  (* Observability must not perturb the RNG streams: a run with a trace
     attached is bit-identical to one without. *)
  let run obs =
    let e = Sim.Engine.create ~seed:17 ~nodes:4 ?obs () in
    Sim.Engine.set_handlers e probe_handlers;
    Sim.Engine.send e ~src:0 ~dst:1 Ping;
    Sim.Engine.send e ~src:2 ~dst:3 Ping;
    Sim.Engine.run e;
    (Sim.Engine.now e, Sim.Engine.messages_delivered e)
  in
  check "identical outcomes" true
    (run None = run (Some (Obs.create ~trace_capacity:0 ())))

(* --- Sinks ----------------------------------------------------------- *)

let slurp path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_temp f =
  let path = Filename.temp_file "test_obs" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_sink_metrics_jsonl () =
  let m = M.create () in
  let c = M.counter m "sink.hits" in
  M.incr c ~labels:[ ("node", "1") ] ~by:3;
  let h = M.histogram m "sink.lat" in
  M.observe h 0.5;
  M.observe h 1.5;
  with_temp (fun path ->
      Obs.Sink.with_file path (fun oc -> Obs.Sink.metrics_jsonl oc m);
      let out = slurp path in
      let lines = String.split_on_char '\n' (String.trim out) in
      check_int "one line per cell" 2 (List.length lines);
      List.iter
        (fun l ->
          check "line is a json object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

let test_sink_trace_csv_header () =
  let t = T.create ~capacity:8 () in
  T.record t ~time:0.25 ~node:0 ~peer:1 ~msg_id:4 ~span:(-1)
    ~label:"x,\"y\"" T.Send;
  with_temp (fun path ->
      Obs.Sink.with_file path (fun oc -> Obs.Sink.trace_csv oc t);
      let out = slurp path in
      let lines = String.split_on_char '\n' (String.trim out) in
      check_int "header + one row" 2 (List.length lines);
      check_str "header" "seq,time,kind,node,peer,msg_id,span,label"
        (List.hd lines);
      (* The comma-and-quote label must round-trip quoted. *)
      check "label quoted" true
        (String.length (List.nth lines 1) > 0
        && String.contains (List.nth lines 1) '"'))

(* Prometheus text exposition (format 0.0.4). *)

let prom_string m =
  with_temp (fun path ->
      Obs.Sink.with_file path (fun oc -> Obs.Sink.metrics_prometheus oc m);
      slurp path)

let test_prom_empty_registry () =
  (* No families registered: the exposition is the empty document, not
     a stray header. *)
  check_str "empty registry" "" (prom_string (M.create ()))

let test_prom_label_escaping () =
  let m = M.create () in
  let c = M.counter m "prom.esc" ~help:"escape \"check\"" in
  M.incr c ~labels:[ ("path", "a\\b\"c\nd") ] ~by:2;
  let out = prom_string m in
  check "dots in the name map to underscores" true
    (contains out "prom_esc_total");
  check "backslash, quote and newline escaped in the label value" true
    (contains out "path=\"a\\\\b\\\"c\\nd\"");
  check "help text escaped" true
    (contains out "# HELP prom_esc_total escape \\\"check\\\"");
  check "counter typed" true (contains out "# TYPE prom_esc_total counter");
  check "cell value" true (contains out "} 2")

let test_prom_histogram_summary () =
  (* Exact-sample histograms are exposed as summaries: pre-computed
     quantile series plus _sum and _count. *)
  let m = M.create () in
  let h = M.histogram m "prom.lat" ~help:"latency" in
  M.observe h ~labels:[ ("op", "read") ] 1.0;
  M.observe h ~labels:[ ("op", "read") ] 3.0;
  let out = prom_string m in
  check "summary typed" true (contains out "# TYPE prom_lat summary");
  check "single HELP/TYPE block" true
    (not (contains out "# TYPE prom_lat_sum"));
  check "p50 series" true
    (contains out "prom_lat{op=\"read\",quantile=\"0.5\"} 1");
  check "p90 series" true
    (contains out "prom_lat{op=\"read\",quantile=\"0.9\"} 3");
  check "p99 series" true
    (contains out "prom_lat{op=\"read\",quantile=\"0.99\"} 3");
  check "sum series" true (contains out "prom_lat_sum{op=\"read\"} 4");
  check "count series" true (contains out "prom_lat_count{op=\"read\"} 2")

(* --- End to end: a chaos run ----------------------------------------- *)

let test_chaos_run_causality_and_metrics () =
  let obs = Obs.create ~trace_capacity:(1 lsl 17) () in
  let system = Core.Registry.build_exn "htriang(10)" in
  let scenario =
    Protocols.Chaos.scenario_of_label ~n:10 ~horizon:120.0 "loss+burst"
  in
  let report = Protocols.Chaos.run_mutex ~seed:7 ~obs ~system scenario in
  check_int "safe under chaos" 0 report.Protocols.Chaos.violations;
  check "some entries" true (report.Protocols.Chaos.entries > 0);
  let tr = Obs.trace obs in
  check "trace not empty" true (T.length tr > 0);
  check_int "no eviction at this capacity" 0 (T.dropped tr);
  check "every deliver has a prior send" true (T.causality_violations tr = []);
  let m = Obs.metrics obs in
  let sends = M.counter m "rpc.sends" in
  check "rpc sends metered" true (M.counter_value sends > 0);
  let entries = M.counter m "mutex.entries" in
  check_int "entries metric mirrors report" report.Protocols.Chaos.entries
    (M.counter_value entries);
  let lat = M.histogram m "mutex.acquire_latency" in
  check_int "latency sample per entry" report.Protocols.Chaos.entries
    (M.count lat);
  (* Lossy network: retransmissions must both happen and be metered. *)
  let retr = M.counter m "rpc.retransmits" in
  let total_retr =
    List.fold_left
      (fun acc (s : M.sample) ->
        match s.M.value with
        | M.Counter v when s.M.name = "rpc.retransmits" -> acc + v
        | _ -> acc)
      0 (M.snapshot m)
  in
  ignore retr;
  check_int "per-node retransmit cells sum to report"
    report.Protocols.Chaos.retransmissions total_retr

(* --- Labeled-cell handles vs labeled calls ----------------------------- *)

type metric_op =
  | Incr of int * int  (** label set, by *)
  | Set of int * float
  | Set_max of int * float
  | Observe of int * float
  | Toggle  (** flip [set_enabled] *)

(* The last two name the same cell; the fifth is never updated. *)
let label_sets =
  [|
    [];
    [ ("node", "1") ];
    [ ("node", "2"); ("op", "read") ];
    [ ("op", "read"); ("node", "2") ];
    [ ("node", "9") ];
  |]

let print_metric_op = function
  | Incr (l, by) -> Printf.sprintf "incr %d by %d" l by
  | Set (l, v) -> Printf.sprintf "set %d %h" l v
  | Set_max (l, v) -> Printf.sprintf "set_max %d %h" l v
  | Observe (l, v) -> Printf.sprintf "observe %d %h" l v
  | Toggle -> "toggle"

(* The same updates, through labeled calls on one registry and through
   handles made up front for every label set on another, leave equal
   snapshots: same cells with the same values, so a handle that is
   never updated, or only while the registry is off, adds no cell. *)
let handles_match_labeled_calls =
  let gen =
    let open QCheck.Gen in
    let l = int_range 0 3 and v = float_range (-5.0) 5.0 in
    list_size (int_range 0 80)
      (oneof
         [
           map2 (fun l by -> Incr (l, by)) l (int_range 0 3);
           map2 (fun l v -> Set (l, v)) l v;
           map2 (fun l v -> Set_max (l, v)) l v;
           map2 (fun l v -> Observe (l, v)) l v;
           return Toggle;
         ])
  in
  let print ops = String.concat "; " (List.map print_metric_op ops) in
  QCheck.Test.make ~name:"handles update the cells labeled calls do"
    ~count:300 (QCheck.make ~print gen) (fun ops ->
      let registry () =
        let m = M.create () in
        (m, M.counter m "t.c", M.gauge m "t.g", M.histogram m ~max_samples:4 "t.h")
      in
      let m1, c1, g1, h1 = registry () and m2, c2, g2, h2 = registry () in
      let each f = Array.map f label_sets in
      let hc = each (M.Handle.counter c2)
      and hg = each (M.Handle.gauge g2)
      and hh = each (M.Handle.histogram h2) in
      let on = ref true in
      List.iter
        (fun op ->
          let labels l = label_sets.(l) in
          match op with
          | Incr (l, by) ->
              M.incr ~labels:(labels l) ~by c1;
              M.Handle.incr ~by hc.(l)
          | Set (l, v) ->
              M.set ~labels:(labels l) g1 v;
              M.Handle.set hg.(l) v
          | Set_max (l, v) ->
              M.set_max ~labels:(labels l) g1 v;
              M.Handle.set_max hg.(l) v
          | Observe (l, v) ->
              M.observe ~labels:(labels l) h1 v;
              M.Handle.observe hh.(l) v
          | Toggle ->
              on := not !on;
              M.set_enabled m1 !on;
              M.set_enabled m2 !on)
        ops;
      M.snapshot m1 = M.snapshot m2)

let test_handle_adds_no_cell () =
  let m = M.create () in
  let c = M.counter m "t.c" in
  let h = M.Handle.counter c [ ("node", "3") ] in
  check_int "a new handle adds no cell" 0 (List.length (M.snapshot m));
  M.set_enabled m false;
  M.Handle.incr h;
  check_int "nor an update while disabled" 0 (List.length (M.snapshot m));
  M.set_enabled m true;
  M.Handle.incr ~by:2 h;
  check_int "the first update adds it" 2
    (M.counter_value ~labels:[ ("node", "3") ] c);
  check "by:-1 raises" true (raises_invalid (fun () -> M.Handle.incr ~by:(-1) h))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          QCheck_alcotest.to_alcotest percentile_matches_oracle;
          Alcotest.test_case "interleaved reads" `Quick
            test_percentile_interleaved_reads;
          Alcotest.test_case "labeled counters" `Quick
            test_labeled_counter_isolation;
          Alcotest.test_case "label canonicalization" `Quick
            test_label_order_canonicalized;
          Alcotest.test_case "registration" `Quick
            test_registration_idempotent_and_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge_last_wins;
          Alcotest.test_case "snapshot" `Quick test_snapshot_deterministic;
          QCheck_alcotest.to_alcotest handles_match_labeled_calls;
          Alcotest.test_case "handle adds no cell" `Quick
            test_handle_adds_no_cell;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "full ring allocates nothing" `Quick
            test_full_ring_records_without_allocating;
          QCheck_alcotest.to_alcotest ring_matches_model;
          Alcotest.test_case "capacity zero" `Quick
            test_trace_capacity_zero_disables;
          Alcotest.test_case "orphan deliver" `Quick
            test_causality_detects_orphan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "message lifecycle" `Quick
            test_engine_traces_message_lifecycle;
          Alcotest.test_case "determinism" `Quick
            test_engine_deterministic_with_obs;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "metrics jsonl" `Quick test_sink_metrics_jsonl;
          Alcotest.test_case "trace csv" `Quick test_sink_trace_csv_header;
          Alcotest.test_case "prometheus empty registry" `Quick
            test_prom_empty_registry;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prom_label_escaping;
          Alcotest.test_case "prometheus histogram summary" `Quick
            test_prom_histogram_summary;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "chaos causality" `Quick
            test_chaos_run_causality_and_metrics;
        ] );
    ]
