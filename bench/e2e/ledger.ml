(* One ledger run: set up a workload's inputs several times, run one
   untimed warm-up rep, timed reps for the requested wall time, the
   workload's untimed pooled rep if it has one, then (when asked) one
   traced rep; check correctness and compute every metric.

   End-to-end metrics come from the untraced reps only; per-layer
   metrics come from the traced rep (BENCHMARK.json and README.md list
   both, with units, directions and bounds). *)

module W = Workloads

type metric = { name : string; unit_ : string; better : string; bound : float option }

let m ?bound name unit_ better = { name; unit_; better; bound }

(* Host-clock metrics a user of the library waits on.  Each is defined
   on every workload and never 0.  The bounds follow the spreads
   measured over ten seeds on a shared 2-vCPU VM (README.md, "Measured
   spreads"): host time there drifts by up to 19% between two sets of
   runs of the same build, so the timing bounds are 25%.

   [alloc_words_per_op] has no noise for one seed, but a set of runs
   is ten runs on ten different seeds, and each set's own spread must
   stay within the bound.  Fault schedules differ by seed, which gives
   a spread of 0.049 on chaos-mix, so its bound is 0.2 rather than a
   few percent.  When both sets share seeds, [compare] also
   prints each seed's exact change, where a smaller regression shows. *)
let end_to_end =
  [
    m "setup_s" "s" "lower" ~bound:0.25;
    m "host_us_per_op" "us" "lower" ~bound:0.25;
    m "alloc_words_per_op" "words/op" "lower" ~bound:0.2;
    m "peak_heap_mb" "MB" "lower" ~bound:0.2;
  ]

let prof_layers =
  [
    ("engine.heap", Obs.Prof.Heap, [ `Self; `Calls; `Words ]);
    ("engine.loop", Obs.Prof.Loop, [ `Self; `Words ]);
    ("engine.dispatch.message", Obs.Prof.Dispatch_msg, [ `Self; `Calls ]);
    ("engine.dispatch.timer", Obs.Prof.Dispatch_timer, [ `Self; `Calls ]);
    ("engine.dispatch.thunk", Obs.Prof.Thunk, [ `Self; `Calls ]);
    ("engine.dispatch.recovery", Obs.Prof.Dispatch_recovery, [ `Self; `Calls ]);
    ("sim.rpc", Obs.Prof.Rpc, [ `Self; `Calls; `Words ]);
    ("sim.durable", Obs.Prof.Durable, [ `Self; `Calls ]);
    ("obs.metrics", Obs.Prof.Metrics, [ `Self; `Words ]);
    ("obs.trace", Obs.Prof.Trace, [ `Self; `Words ]);
    ("obs.span", Obs.Prof.Span, [ `Self; `Words ]);
    ("exec.pool", Obs.Prof.Exec, [ `Self ]);
  ]

let groups = [ "flat"; "htriang"; "hgrid" ]
let exact_families = [ "grid-rw"; "majority"; "htgrid"; "htriang" ]

let field_suffix = function `Self -> ".self_s" | `Calls -> ".calls" | `Words -> ".words"

(* Unit "sim_t" is simulated time; everything else is host-measured or
   a count. *)
let per_layer =
  List.concat_map
    (fun (prefix, _, fields) ->
      List.map
        (fun f ->
          let unit_ = match f with `Self -> "s" | `Calls -> "count" | `Words -> "words" in
          m (prefix ^ field_suffix f) unit_ "lower")
        fields)
    prof_layers
  @ [
      m "prof.total_s" "s" "lower";
      m "sim.msgs_per_op" "1/op" "lower";
      m "rpc.retransmits_per_op" "1/op" "lower";
      m "durable.appends_per_write" "1/write" "lower";
      m "store.ops_per_batch" "ops/batch" "higher";
      m "protocols.self_s" "s" "lower";
    ]
  @ List.concat_map
      (fun g ->
        [
          m (Printf.sprintf "protocols.%s.sim_ops_per_s" g) "1/sim_t" "higher";
          m (Printf.sprintf "protocols.%s.failed_frac" g) "ratio" "lower";
          m (Printf.sprintf "protocols.%s.sim_latency_p99" g) "sim_t" "lower";
        ])
      groups
  @ [
      m "mutex.entry_frac" "ratio" "higher";
      m "mutex.mean_wait" "sim_t" "lower";
      m "mutex.msgs_per_entry" "1/entry" "lower";
      m "reconfig.failed_frac" "ratio" "lower";
      m "reconfig.epoch_switches" "count" "higher";
      m "membership.timed.availability" "ratio" "higher";
      m "membership.fd.availability" "ratio" "higher";
      m "membership.switch_downtime" "sim_t" "lower";
      m "membership.false_evictions" "count" "lower";
      m "membership.lease_refusals" "count" "lower";
      m "quorum.select.calls" "count" "lower";
      m "quorum.select.self_s" "s" "lower";
      m "quorum.avail.calls" "count" "lower";
      m "quorum.avail.self_s" "s" "lower";
    ]
  @ List.map
      (fun f -> m (Printf.sprintf "analysis.exact.%s.ns_per_set" f) "ns" "lower")
      exact_families
  @ [
      m "analysis.exact.words_per_set" "words" "lower";
      m "analysis.optimizer.sweep_s" "s" "lower";
      m "analysis.optimizer.evaluate_ms.p50" "ms" "lower";
      m "analysis.optimizer.evaluate_ms.p90" "ms" "lower";
      m "analysis.optimizer.evaluate_ms.samples" "count" "higher";
      m "lp.mixed_load_ms.p50" "ms" "lower";
      m "lp.mixed_load_ms.p90" "ms" "lower";
      m "lp.mixed_load_ms.samples" "count" "higher";
      m "exec.batches" "count" "lower";
      m "exec.chunks" "count" "lower";
      m "exec.chunk_ms.p50" "ms" "lower";
      m "exec.chunk_ms.p90" "ms" "lower";
      m "exec.pooled_speedup" "ratio" "higher";
      m "obs.trace_analysis.audit_s" "s" "lower";
      m "obs.trace_analysis.audit_hops" "count" "lower";
      m "obs.trace_analysis.monotonic_read_violations" "count" "lower";
      m "obs.trace.dropped" "count" "lower";
      m "obs.tracing_overhead" "ratio" "lower";
      m "sim.ops_per_s" "1/sim_t" "higher";
      m "sim.latency_p50" "sim_t" "lower";
      m "sim.latency_p99" "sim_t" "lower";
      m "sim.latency_samples" "count" "higher";
      m "sim.failed_frac" "ratio" "lower";
      m "run.wall_s.median" "s" "lower";
      m "run.reps" "count" "higher";
      m "run.ops_per_rep" "count" "higher";
    ]

(* --- Reps ---------------------------------------------------------------- *)

(* What the ledger keeps of one rep.  The cells themselves (histories,
   fingerprints) are dropped after the rep, except the traced rep's:
   kept, they would grow the live heap rep by rep and make each later
   rep's major GC work differ. *)
type rep = {
  wall : float;
  words : float;
  top_heap_words : int;  (** the heap's high-water mark when the rep ended *)
  digest : string;
  ops : int;  (** completed ops *)
  cell_walls : float list;
  cell_problems : string list list;
}

let ops cells = List.fold_left (fun a (c : W.cell) -> a + c.W.completed) 0 cells

(* Minor words of every domain (Gc.minor_words is per-domain; the
   analysis pool allocates on two). *)
let minor_words () = (Gc.stat ()).Gc.minor_words

(* One rep, [run ()], and its cells.  Every rep starts from a fully
   collected heap, so its cost does not depend on how many reps ran
   before it. *)
let rep run =
  Gc.full_major ();
  let w0 = minor_words () in
  let t0 = Tracer.now () in
  let cells = run () in
  let wall = Tracer.now () -. t0 in
  let words = minor_words () -. w0 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map (fun c -> Digest.string (Lazy.force c.W.fingerprint)) cells)))
  in
  ( {
      wall;
      words;
      top_heap_words;
      digest;
      ops = ops cells;
      cell_walls = List.map (fun (c : W.cell) -> c.W.wall) cells;
      cell_problems = List.map (fun (c : W.cell) -> c.W.problems) cells;
    },
    cells )

(* --- Result ---------------------------------------------------------------- *)

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;  (** checked cells, over every rep *)
  failed : int;  (** cells whose checks failed *)
  problems : string list;
  digest : string;
  walls : float list;  (** each timed rep's wall seconds *)
  e2e : (string * float) list;
  layers : (string * float option) list;
      (** traced runs only; [None]: the layer does no work here *)
  tracer : Tracer.t option;  (** the traced rep's instruments *)
}

let div a b = if b > 0.0 then Some (a /. b) else None

(* Per-layer values of the traced rep. *)
let layer_values ~(traced : rep) ~(pooled : rep option) ~cells ~best_cells ~walls
    (t : Tracer.t) =
  let simulated = List.exists (fun (c : W.cell) -> c.W.horizon > 0.0) cells in
  let if_sim v = if simulated then Some v else None in
  (* Sum of an additive count over the cells that report it. *)
  let count name =
    List.fold_left
      (fun acc (c : W.cell) ->
        match (acc, List.assoc_opt name c.W.counts) with
        | None, None -> None
        | Some a, None -> Some a
        | a, Some x -> Some (Option.value ~default:0.0 a +. x))
      None cells
  in
  let ( >>= ) = Option.bind in
  let sim_summary cells =
    let sim = List.filter (fun (c : W.cell) -> c.W.horizon > 0.0) cells in
    let att = List.fold_left (fun a (c : W.cell) -> a + c.W.attempted) 0 sim in
    let comp = List.fold_left (fun a (c : W.cell) -> a + c.W.completed) 0 sim in
    let lat = List.concat_map (fun (c : W.cell) -> c.W.latencies) sim in
    let rate =
      if sim = [] then None
      else
        Some
          (List.fold_left
             (fun a (c : W.cell) -> a +. (float_of_int c.W.completed /. c.W.horizon))
             0.0 sim
          /. float_of_int (List.length sim))
    in
    ( rate,
      div (float_of_int (att - comp)) (float_of_int att),
      lat )
  in
  let ops = float_of_int (ops cells) in
  let prof cat field =
    let i = Obs.Prof.index cat in
    match field with
    | `Self -> t.Tracer.prof_s.(i)
    | `Calls -> float_of_int t.Tracer.prof_calls.(i)
    | `Words -> t.Tracer.prof_words.(i)
  in
  let dispatch =
    List.fold_left
      (fun a c -> a +. prof c `Self)
      0.0
      Obs.Prof.[ Dispatch_msg; Dispatch_timer; Dispatch_recovery; Thunk ]
  in
  let rate, failed_frac, lat = sim_summary cells in
  let samples name =
    match Tracer.samples t name with
    | [] -> (None, None, None)
    | xs ->
        ( Obs.Trace_analysis.percentile xs 0.5,
          Obs.Trace_analysis.percentile xs 0.9,
          Some (float_of_int (List.length xs)) )
  in
  let eval_p50, eval_p90, eval_n = samples "analysis.optimizer.evaluate_ms" in
  let lp_p50, lp_p90, lp_n = samples "lp.mixed_load_ms" in
  let counter name = if_sim (Tracer.counter t name) in
  List.concat_map
    (fun (prefix, cat, fields) ->
      (* A category no probe entered does no work on this workload. *)
      let probed = t.Tracer.prof_calls.(Obs.Prof.index cat) > 0 in
      List.map
        (fun f -> (prefix ^ field_suffix f, if probed then Some (prof cat f) else None))
        fields)
    prof_layers
  @ [
      ("prof.total_s", Some (Tracer.prof_total t));
      ("sim.msgs_per_op", counter "sim.messages_sent" >>= fun x -> div x ops);
      ("rpc.retransmits_per_op", counter "rpc.retransmits" >>= fun x -> div x ops);
      ( "durable.appends_per_write",
        counter "durable.appends" >>= fun a -> count "writes" >>= div a );
      ( "store.ops_per_batch",
        counter "store.batched_ops" >>= fun o ->
        counter "store.batches" >>= div o );
      ( "protocols.self_s",
        if_sim (dispatch -. t.Tracer.select_s -. t.Tracer.avail_s) );
    ]
  @ List.concat_map
      (fun g ->
        let rate, ff, lat =
          sim_summary (List.filter (fun (c : W.cell) -> c.W.group = g) cells)
        in
        [
          (Printf.sprintf "protocols.%s.sim_ops_per_s" g, rate);
          (Printf.sprintf "protocols.%s.failed_frac" g, ff);
          (Printf.sprintf "protocols.%s.sim_latency_p99" g, Obs.Trace_analysis.percentile lat 0.99);
        ])
      groups
  @ [
      ("mutex.entry_frac", count "mutex.entries" >>= fun e -> count "mutex.issued" >>= div e);
      ("mutex.mean_wait", count "mutex.wait_sum" >>= fun w -> count "mutex.entries" >>= div w);
      ("mutex.msgs_per_entry", count "mutex.msgs" >>= fun x -> count "mutex.entries" >>= div x);
      ( "reconfig.failed_frac",
        count "reconfig.failed" >>= fun f -> count "reconfig.issued" >>= div f );
      ("reconfig.epoch_switches", count "reconfig.epoch_switches");
      ( "membership.timed.availability",
        count "membership.timed.ok" >>= fun ok ->
        count "membership.timed.asked" >>= div ok );
      ( "membership.fd.availability",
        count "membership.fd.ok" >>= fun ok ->
        count "membership.fd.asked" >>= div ok );
      ("membership.switch_downtime", count "membership.switch_downtime");
      ("membership.false_evictions", count "membership.false_evictions");
      ("membership.lease_refusals", count "membership.lease_refusals");
      ("quorum.select.calls", if_sim (float_of_int t.Tracer.select_calls));
      ("quorum.select.self_s", if_sim t.Tracer.select_s);
      ("quorum.avail.calls", if_sim (float_of_int t.Tracer.avail_calls));
      ("quorum.avail.self_s", if_sim t.Tracer.avail_s);
    ]
  @ List.map
      (fun f ->
        let name = Printf.sprintf "analysis.exact.%s.ns_per_set" f in
        (name, Tracer.value t name))
      exact_families
  @ [
      ( "analysis.exact.words_per_set",
        Tracer.value t "analysis.exact.words" >>= fun w ->
        Tracer.value t "analysis.exact.sets" >>= div w );
      ("analysis.optimizer.sweep_s", Tracer.value t "analysis.optimizer.sweep_s");
      ("analysis.optimizer.evaluate_ms.p50", eval_p50);
      ("analysis.optimizer.evaluate_ms.p90", eval_p90);
      ("analysis.optimizer.evaluate_ms.samples", eval_n);
      ("lp.mixed_load_ms.p50", lp_p50);
      ("lp.mixed_load_ms.p90", lp_p90);
      ("lp.mixed_load_ms.samples", lp_n);
      ("exec.batches", Hashtbl.find_opt t.Tracer.counters "exec.batches");
      ("exec.chunks", Hashtbl.find_opt t.Tracer.counters "exec.chunks");
      ("exec.chunk_ms.p50", Tracer.value t "exec.chunk_ms.p50");
      ("exec.chunk_ms.p90", Tracer.value t "exec.chunk_ms.p90");
      (* The one multi-domain rep, untimed for the end-to-end metrics:
         the fastest one-domain cells over its cells. *)
      ( "exec.pooled_speedup",
        pooled >>= fun p -> div best_cells (List.fold_left ( +. ) 0.0 p.cell_walls) );
      ("obs.trace_analysis.audit_s", Tracer.value t "obs.trace_analysis.audit_s");
      ("obs.trace_analysis.audit_hops", Tracer.value t "obs.trace_analysis.audit_hops");
      ("obs.trace_analysis.monotonic_read_violations", count "monotonic_reads");
      ("obs.trace.dropped", counter "obs.trace.dropped");
      (* Cell against cell: the analysis traced rep also runs the
         per-candidate timings, which are extra work, not overhead. *)
      ( "obs.tracing_overhead",
        div (List.fold_left ( +. ) 0.0 traced.cell_walls) best_cells );
      ("sim.ops_per_s", rate);
      ("sim.latency_p50", Obs.Trace_analysis.percentile lat 0.5);
      ("sim.latency_p99", Obs.Trace_analysis.percentile lat 0.99);
      ("sim.latency_samples", if_sim (float_of_int (List.length lat)));
      ("sim.failed_frac", failed_frac);
      ("run.wall_s.median", Some (Stats.median walls));
      ("run.reps", Some (float_of_int (List.length walls)));
      ("run.ops_per_rep", Some ops);
    ]

(* Set-ups per timed batch.  A store workload sets up in microseconds,
   below what one wall-clock reading resolves; a fixed batch (not one
   sized by the clock) keeps the allocation pattern, and so the GC's
   share, the same in every run. *)
let setup_per_batch = 64

(* Batches timed before the warm-up and again before every timed rep. *)
let setup_batches = 3
let min_reps = 3

(* Seconds per set-up, over one batch of back-to-back set-ups, each
   released before the next. *)
let setup_batch (w : W.t) size ~seed =
  let t0 = Tracer.now () in
  for _ = 1 to setup_per_batch do
    (w.W.setup size ~seed).W.release ()
  done;
  (Tracer.now () -. t0) /. float_of_int setup_per_batch

let run ?(size = W.full) ~seconds ~trace (w : W.t) ~seed =
  (* 1. Inputs from the seed.  Set-up is timed in [setup_batches]
     batches here and as many again before every timed rep, and the
     fastest batch is reported, like the fastest rep below.  A shared
     host has stretches of a second or more in which the same batch
     takes up to twice as long; they only ever add time, and batches
     spread over the whole run make sure some fall outside them. *)
  let setups = ref [] in
  let time_setups () =
    for _ = 1 to setup_batches do
      setups := setup_batch w size ~seed :: !setups
    done
  in
  time_setups ();
  let inst = w.W.setup size ~seed in
  (* 2. Warm-up: the first rep pays for heap growth and lazy quorum
     lists; it also runs the once-per-process checks. *)
  let warm, _ = rep (fun () -> inst.W.run W.Warmup) in
  (* 3. Timed reps, library defaults, for [seconds] of wall time. *)
  let start = Tracer.now () in
  let rec timed acc n =
    if n >= min_reps && Tracer.now () -. start >= seconds then List.rev acc
    else (
      time_setups ();
      timed (fst (rep (fun () -> inst.W.run W.Timed)) :: acc) (n + 1))
  in
  let timed = timed [] 0 in
  let setup_s = List.fold_left Float.min infinity !setups in
  (* 4. The workload's pooled rep, if it has one: checked by its digest;
     its time feeds only the per-layer [exec.pooled_speedup]. *)
  let pooled = Option.map (fun run -> fst (rep run)) inst.W.pooled in
  inst.W.release ();
  (* 5. With [trace], one traced rep: same seed, profiled Obs, wrapped
     systems.  Its digest must equal the untraced one. *)
  let traced =
    if trace then
      let t = Tracer.create () in
      let r, cells = rep (fun () -> inst.W.run (W.Traced t)) in
      Some (t, r, cells)
    else None
  in
  let all =
    (warm :: timed)
    @ Option.to_list pooled
    @ Option.to_list (Option.map (fun (_, r, _) -> r) traced)
  in
  let walls = List.map (fun r -> r.wall) timed in
  (* Every cell repeats identical work in every rep (the digest check),
     so the fastest rep of each cell, summed, is the rep without
     stalls: a finer filter than the fastest whole rep. *)
  let best_cells =
    List.fold_left
      (fun acc r -> List.map2 Float.min acc r.cell_walls)
      (List.map (fun _ -> infinity) warm.cell_walls)
      timed
    |> List.fold_left ( +. ) 0.0
  in
  let ops = float_of_int warm.ops in
  let words = List.map (fun r -> r.words) timed in
  let cell_problems = List.concat_map (fun r -> List.concat r.cell_problems) all in
  let check cond msg = if cond then [ msg ] else [] in
  let profile_problems (t : Tracer.t) =
    List.map
      (fun (i, s) -> Printf.sprintf "profile %d: time shares sum to %.4f" i s)
      (Tracer.bad_share_sums t)
    @ check
        (t.Tracer.truncated > 0 || t.Tracer.unbalanced > 0)
        (Printf.sprintf "profile probes: %d truncated, %d unbalanced"
           t.Tracer.truncated t.Tracer.unbalanced)
  in
  let problems =
    List.sort_uniq compare cell_problems
    @ List.concat
        (List.mapi
           (fun i (r : rep) ->
             check (r.digest <> warm.digest)
               (Printf.sprintf "rep %d: sim digest %s differs from warm-up %s" i
                  r.digest warm.digest))
           all)
    @ check
        (List.exists (fun x -> x <> List.hd words) words)
        (Printf.sprintf "timed reps allocated different minor words: %s"
           (String.concat ", " (List.map (Printf.sprintf "%.0f") words)))
    @ (match traced with Some (t, _, _) -> profile_problems t | None -> [])
    @ check (ops <= 0.0) "no operation completed"
  in
  let n_cells = List.fold_left (fun a r -> a + List.length r.cell_walls) 0 all in
  let failed =
    List.fold_left
      (fun a r -> a + List.length (List.filter (( <> ) []) r.cell_problems))
      0 all
  in
  {
    workload = w.W.name;
    seed;
    correct = problems = [];
    attempted = n_cells;
    failed;
    problems;
    digest = warm.digest;
    walls;
    e2e =
      [
        ("setup_s", setup_s);
        ("host_us_per_op", best_cells *. 1e6 /. ops);
        ("alloc_words_per_op", Stats.median words /. ops);
        (* The high-water mark keeps rising with every further rep, so
           it is read once, after the first rep from a fresh heap. *)
        ("peak_heap_mb", float_of_int warm.top_heap_words *. 8.0 /. 1e6);
      ];
    layers =
      (match traced with
      | Some (t, traced, cells) ->
          layer_values ~traced ~pooled ~cells ~best_cells ~walls t
      | None -> []);
    tracer = Option.map (fun (t, _, _) -> t) traced;
  }

(* --- Rendering ------------------------------------------------------------- *)

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit_
  | None -> ""

let print_table r =
  let line name v =
    Printf.printf "  %-42s %16s %s\n" name
      (match v with Some x -> Printf.sprintf "%.6g" x | None -> "-")
      (unit_of name)
  in
  Printf.printf "%s seed %d: digest %s, %s\ntimed reps (s): %s\n" r.workload
    r.seed r.digest
    (if r.correct then "correct" else "INCORRECT")
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.walls));
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.problems;
  Printf.printf "end to end (untraced reps):\n";
  List.iter (fun (k, v) -> line k (Some v)) r.e2e;
  if r.layers <> [] then begin
    Printf.printf "per layer (traced rep; - = the layer does no work here):\n";
    List.iter (fun (k, v) -> line k v) r.layers
  end

(* The full record, one line, for [compare]: null marks a layer that
   does no work on this workload. *)
let report_json r =
  Json.Obj
    [
      ("report", Json.Str "e2e-ledger");
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("correct", Json.Bool r.correct);
      ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
      ("sim_digest", Json.Str r.digest);
      ("rep_walls_s", Json.List (List.map (fun x -> Json.Num x) r.walls));
      ("e2e", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.e2e));
      ( "layers",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, match v with Some x -> Json.Num x | None -> Json.Null))
             r.layers) );
    ]

(* The benchmark contract's last line.  It must carry a number for
   every declared metric, so a layer idle on this workload reads 0. *)
let result_json r ~trace =
  let metrics =
    if trace then List.map (fun (k, v) -> (k, Option.value ~default:0.0 v)) r.layers
    else r.e2e
  in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ]))
             metrics) );
    ]
