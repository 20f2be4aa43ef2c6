(* Raw engine speed: relay ops/sec and allocations/op for the
   Engine/Rpc/Durable hot path, per observability configuration, on a
   pinned seed (48).

   The workload is a self-contained rpc relay: every operation opens a
   root span, sends a payload around a ring of 15 nodes through the
   reliable-rpc layer (ack + retransmit timers, 2% network loss),
   appends each hop to the durable log, and finishes the span on the
   last hop; two crash/recover cycles exercise the recovery path.  The
   same pinned workload runs under four observability configurations:

     no-sink        metrics off, trace off, no spans opened
     metrics-only   metrics on, trace off, no spans
     full-trace     metrics + trace ring + every span kept
     sampled-trace  metrics + trace ring + spans sampled 1-in-8

   Because observability is behaviorally inert, all four configurations
   must dispatch exactly the same events — asserted below — so the
   numbers isolate what each layer costs, not what it changes.  A fifth
   run (full-trace + profiler) produces the per-category table; its
   time and allocation shares must sum to ~100% of the probed totals
   (also asserted).

   The relay runs no failure detector, so a heartbeats row measures the
   detector alone on the same seed: 15 nodes beating all-to-all at 5%
   network loss, no protocol traffic — the beat rounds' draws, the
   arrivals' filing and the per-round accuracy samples — as beats/sec
   and minor words per beat.

   Quorum selection is measured alone too, as one row per system:
   majority(15), h-triang(15) and shard 0 of the sharded h-grid the
   store runs at n = 15 (its read and write systems in turn), each
   selecting over the same pinned stream of live sets, as selects/sec
   and minor words per select.  So is the availability check, as one
   row per system and path: the raw-mask path the exact 2^n scans call
   on majority(24), grid-rw(4x6), h-T-grid(4x5) and h-triang(21), and
   the live-bitset path the simulator calls on h-grid(4x4) and
   h-triang(15), each over a pinned stream of live sets, as checks/sec
   and minor words per check.  The exact 2^n scans of the first four
   are counted too: with [avail_mask] wrapped in a counter, the
   monotone walk's availability checks per live set.

   Everything lands in BENCH_engine.json, with events/sec and
   allocations/event beside the per-op figures.  The relay is gated per
   op, not per event: cancelled timers are work the engine no longer
   does, so a change that cancels more dispatches fewer events per op
   and raises words per event while the op gets cheaper.  With --gate
   FILE the rows are compared against a committed baseline:
   allocations per op (per beat, per select) are deterministic for a
   given compiler and gated at +10%; ops/sec (beats/sec) is
   machine-dependent, so the gate uses the ratio to an in-process
   calibration loop (ops per calibration op) and allows -15%; each
   gated row runs a calibration pass before each of its reps and takes
   the best of each, so drift of a shared host between the two cancels
   out of the ratio.  The
   selection and availability rows gate their words only: a select or
   a check is too short for its rate to hold a 15% bound on a shared
   host.  The scan rows gate their checks per live set, also
   deterministic, at +10%. *)

module Engine = Sim.Engine
module Rpc = Sim.Rpc
module Durable = Sim.Durable
module Network = Sim.Network
module Fd = Sim.Failure_detector

let seed = 48
let n_nodes = 15
let hops = 8
let ops () = if !Util.fast then 600 else 4000

type cfg = {
  cname : string;
  trace_capacity : int;
  metrics_on : bool;
  use_spans : bool;
  keep_1_in : int option;
}

let configs =
  [
    { cname = "no-sink"; trace_capacity = 0; metrics_on = false;
      use_spans = false; keep_1_in = None };
    { cname = "metrics-only"; trace_capacity = 0; metrics_on = true;
      use_spans = false; keep_1_in = None };
    { cname = "full-trace"; trace_capacity = 1 lsl 18; metrics_on = true;
      use_spans = true; keep_1_in = None };
    { cname = "sampled-trace"; trace_capacity = 1 lsl 18; metrics_on = true;
      use_spans = true; keep_1_in = Some 8 };
  ]

(* One pinned run; returns the engine (for counters) and the measured
   wall seconds and minor words across scheduling + drain. *)
let run_once cfg ~profile =
  let obs =
    Obs.create ~trace_capacity:cfg.trace_capacity ~profile
      ?span_keep_1_in:cfg.keep_1_in ~span_sample_seed:seed ()
  in
  if not cfg.metrics_on then Obs.Metrics.set_enabled (Obs.metrics obs) false;
  let spans = Obs.spans obs in
  let use_spans = cfg.use_spans in
  let dur =
    Durable.create ~obs ~nodes:n_nodes (Durable.config ~fsync_latency:0.4 ())
  in
  let network = Network.create ~loss:0.02 () in
  let e = Engine.create ~seed ~nodes:n_nodes ~network ~obs () in
  let rpc = Rpc.create e () in
  Engine.set_handlers e
    {
      Engine.on_message =
        (fun e ~node ~src m ->
          Rpc.on_message rpc ~node ~src m ~deliver:(fun ~src:_ remaining ->
              let now = Engine.now e in
              ignore (Durable.append dur ~node ~now remaining);
              let ctx = Engine.span_ctx e in
              if use_spans && ctx <> -1 then begin
                let h =
                  Obs.Span.start spans ~time:now ~node ~parent:ctx "bench.hop"
                in
                Obs.Span.finish spans ~time:now h
              end;
              if remaining > 0 then
                Rpc.send rpc ~src:node
                  ~dst:((node + 3) mod n_nodes)
                  (remaining - 1)
              else if use_spans && ctx <> -1 then
                Obs.Span.finish spans ~time:now ctx));
      on_timer =
        (fun _e ~node ~tag -> ignore (Rpc.on_timer rpc ~node ~tag));
      on_crash =
        (fun e ~node ->
          Rpc.on_crash rpc ~node;
          Durable.crash dur ~node ~now:(Engine.now e));
      on_recover =
        (fun e ~node ~amnesia ->
          if amnesia then
            ignore (Durable.replay dur ~node ~now:(Engine.now e)));
    };
  let n_ops = ops () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n_ops - 1 do
    let c = i mod n_nodes in
    let time = 1.0 +. (float_of_int i *. 0.35) in
    Engine.schedule e ~time (fun () ->
        let sp =
          if use_spans then
            Obs.Span.start spans ~time:(Engine.now e) ~node:c "bench.op"
          else -1
        in
        Engine.set_span_ctx e sp;
        Rpc.send rpc ~src:c ~dst:((c + 1) mod n_nodes) hops;
        Engine.set_span_ctx e (-1))
  done;
  Engine.crash_at e ~time:40.0 ~node:7;
  Engine.recover_at e ~time:70.0 ~node:7 ~amnesia:true;
  Engine.crash_at e ~time:120.0 ~node:3;
  Engine.recover_at e ~time:150.0 ~node:3;
  Engine.run e ~max_events:50_000_000;
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  (e, obs, dt, dw)

(* Machine-speed yardstick: one timed pass of a fixed pure-OCaml
   mixing loop, in loop ops/sec, so the committed events/sec baseline
   survives CI runners of a different speed as a ratio (events per
   calibration op). *)
let calibration_pass () =
  let a = Array.make 4096 0 in
  let iters = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  let x = ref seed in
  for i = 0 to iters - 1 do
    x := (!x * 0x9E3779B1) lxor (!x asr 13);
    Array.unsafe_set a (i land 4095) !x
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if a.(0) = min_int then print_string "";
  float_of_int iters /. dt

(* The best of three passes: the yardstick of the rows whose rate is
   reported, not gated. *)
let calibration () =
  Float.max (calibration_pass ())
    (Float.max (calibration_pass ()) (calibration_pass ()))

type measured = {
  m_cfg : cfg;
  events : int;
  sent : int;
  best_dt : float;
  calib : float;  (** the best calibration pass, one before each rep *)
  words_per_event : float;
  words_per_op : float;
}

let measure cfg =
  let reps = if !Util.fast then 2 else 3 in
  let best_dt = ref infinity in
  let calib = ref 0.0 in
  let events = ref 0 in
  let sent = ref 0 in
  let words = ref 0.0 in
  for rep = 1 to reps do
    calib := Float.max !calib (calibration_pass ());
    let e, _obs, dt, dw = run_once cfg ~profile:false in
    if dt < !best_dt then best_dt := dt;
    if rep = 1 then begin
      events := Engine.events_dispatched e;
      sent := Engine.messages_sent e;
      words := dw
    end
    else begin
      (* The workload is pinned: every rep must replay exactly, down to
         the allocation count. *)
      assert (Engine.events_dispatched e = !events);
      assert (Engine.messages_sent e = !sent);
      assert (dw = !words)
    end
  done;
  {
    m_cfg = cfg;
    events = !events;
    sent = !sent;
    best_dt = !best_dt;
    calib = !calib;
    words_per_event = !words /. float_of_int (max 1 !events);
    words_per_op = !words /. float_of_int (ops ());
  }

(* --- Heartbeats ------------------------------------------------------ *)

let beat_loss = 0.05
let beat_horizon () = if !Util.fast then 1000.0 else 10000.0

type heartbeats = {
  beats : int;
  beats_dt : float;
  beats_calib : float;  (** the best calibration pass, one before each rep *)
  words_per_beat : float;
}

(* One pinned detector-only run: the beats sent, and the wall seconds
   and minor words of the drain. *)
let run_heartbeats () =
  let network = Network.create ~loss:beat_loss () in
  let obs = Obs.create ~trace_capacity:0 () in
  let e = Engine.create ~seed ~nodes:n_nodes ~network ~obs () in
  let fd = Fd.create e () in
  Engine.set_handlers e
    {
      Engine.on_message = (fun _ ~node:_ ~src:_ () -> ());
      on_timer = (fun _ ~node ~tag -> ignore (Fd.on_timer fd ~node ~tag));
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node ~amnesia:_ -> Fd.on_recover fd ~node);
    };
  (* Beat rounds are background events: one foreground event at the
     horizon keeps the run going until then. *)
  Engine.schedule e ~time:(beat_horizon ()) ignore;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Engine.run e;
  let dt = Unix.gettimeofday () -. t0 in
  (Engine.messages_background e, dt, Gc.minor_words () -. w0)

let measure_heartbeats () =
  let reps = if !Util.fast then 2 else 3 in
  let calib = ref (calibration_pass ()) in
  let beats, dt, words = run_heartbeats () in
  let best = ref dt in
  for _ = 2 to reps do
    calib := Float.max !calib (calibration_pass ());
    let b, dt, w = run_heartbeats () in
    (* Pinned, like the relay: every rep replays exactly. *)
    assert (b = beats && w = words);
    if dt < !best then best := dt
  done;
  {
    beats;
    beats_dt = !best;
    beats_calib = !calib;
    words_per_beat = words /. float_of_int beats;
  }

(* --- Selection --------------------------------------------------------- *)

let select_lives = 64
let selects () = if !Util.fast then 40_000 else 400_000

(* The selectors each row runs in turn over the live-set stream. *)
let select_rows () =
  let shard =
    match
      Protocols.Shard_router.create ~family:Protocols.Shard_router.Hgrid
        ~universe:n_nodes ~shards:(n_nodes / 4) ()
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  [
    ("select majority(15)", [| Systems.Majority.make n_nodes |]);
    ( "select h-triang(15)",
      [| Core.Htriang.system (Core.Htriang.standard ~rows:5 ()) |] );
    ( "select shard h-grid",
      [|
        Protocols.Shard_router.shard_read_system shard ~shard:0;
        Protocols.Shard_router.shard_write_system shard ~shard:0;
      |] );
  ]

type selection = {
  sel_row : string;
  sel_dt : float;
  words_per_select : float;
}

(* A pinned stream of live sets: each node up with probability 0.9. *)
let live_stream () =
  let rng = Quorum.Rng.create seed in
  Array.init select_lives (fun _ ->
      Quorum.Bitset.random_subset rng ~n:n_nodes ~p:0.9)

let run_selects systems lives =
  let rng = Quorum.Rng.create seed in
  let k = Array.length systems and count = selects () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to count - 1 do
    let s = systems.(i mod k) in
    ignore
      (Sys.opaque_identity
         (s.Quorum.System.select rng ~live:lives.(i mod select_lives)))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, Gc.minor_words () -. w0)

let measure_selection () =
  let lives = live_stream () in
  let reps = if !Util.fast then 2 else 3 in
  List.map
    (fun (row, systems) ->
      let dt, words = run_selects systems lives in
      let best = ref dt in
      for _ = 2 to reps do
        let dt, w = run_selects systems lives in
        (* Pinned: every rep allocates exactly the same. *)
        assert (w = words);
        if dt < !best then best := dt
      done;
      {
        sel_row = row;
        sel_dt = !best;
        words_per_select = words /. float_of_int (selects ());
      })
    (select_rows ())

(* --- Availability -------------------------------------------------- *)

let avail_lives = 64
let avail_checks () = if !Util.fast then 100_000 else 1_000_000

type path = Mask | Live

(* Each row's system and the path it checks. *)
let avail_rows () =
  List.map
    (fun (row, path, spec) -> (row, path, Util.system spec))
    [
      ("avail_mask majority(24)", Mask, "majority(24)");
      ("avail_mask grid-rw(4x6)", Mask, "grid-rw(4x6)");
      ("avail_mask htgrid(4x5)", Mask, "htgrid(4x5)");
      ("avail_mask htriang(21)", Mask, "htriang(21)");
      ("avail h-grid(4x4)", Live, "hgrid(4x4)");
      ("avail h-triang(15)", Live, "htriang(15)");
    ]

type availability = {
  av_row : string;
  av_dt : float;
  words_per_check : float;
}

(* A pinned stream of live sets: each process up with probability 1/2,
   the uniform live set of the exact scans. *)
let avail_stream n =
  let rng = Quorum.Rng.create seed in
  Array.init avail_lives (fun _ -> Quorum.Bitset.random_subset rng ~n ~p:0.5)

(* [f] over the stream [sets] (raw masks or bitsets). *)
let run_checks f sets =
  let count = avail_checks () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to count - 1 do
    ignore (Sys.opaque_identity (f sets.(i mod avail_lives)))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, Gc.minor_words () -. w0)

let measure_availability () =
  let reps = if !Util.fast then 2 else 3 in
  List.map
    (fun (row, path, (s : Quorum.System.t)) ->
      let lives = avail_stream s.Quorum.System.n in
      let run () =
        match (path, s.Quorum.System.avail_mask) with
        | Mask, Some f -> run_checks f (Array.map Quorum.Bitset.to_mask lives)
        | Mask, None -> failwith (row ^ ": no native mask path")
        | Live, _ -> run_checks s.Quorum.System.avail lives
      in
      let dt, words = run () in
      let best = ref dt in
      for _ = 2 to reps do
        let dt, w = run () in
        (* Pinned: every rep allocates exactly the same. *)
        assert (w = words);
        if dt < !best then best := dt
      done;
      {
        av_row = row;
        av_dt = !best;
        words_per_check = words /. float_of_int (avail_checks ());
      })
    (avail_rows ())

(* --- Exact-scan work -------------------------------------------------- *)

(* The ledger's four 2^n scans, each row's [avail_mask] wrapped in a
   counter: availability checks per live set of [Failure.exact_poly]'s
   monotone walk (1 for a scan that checks every set).  All four
   families count their available sets from structure, which checks
   nothing, so the copy drops the counts to keep the walk measured. *)
let scan_rows () =
  List.map
    (fun spec -> ("scan " ^ spec, Util.system spec))
    [ "majority(24)"; "grid-rw(4x6)"; "htgrid(4x5)"; "htriang(21)" ]

type scan = { sc_row : string; sc_dt : float; sets : int; checks : int }

let measure_scans () =
  List.map
    (fun (row, (s : Quorum.System.t)) ->
      let f = Quorum.System.avail_mask_exn s in
      let checks = ref 0 in
      let counted =
        {
          s with
          Quorum.System.avail_mask =
            Some
              (fun m ->
                incr checks;
                f m);
          avail_counts = None;
        }
      in
      let t0 = Unix.gettimeofday () in
      ignore (Analysis.Failure.exact_poly counted : Quorum.Failure_poly.t);
      let dt = Unix.gettimeofday () -. t0 in
      {
        sc_row = row;
        sc_dt = dt;
        sets = 1 lsl s.Quorum.System.n;
        checks = !checks;
      })
    (scan_rows ())

let checks_per_set m = float_of_int m.checks /. float_of_int m.sets

(* --- JSON ----------------------------------------------------------- *)

(* The relay and heartbeat rows carry their own interleaved
   calibration, the one their gated rate is divided by. *)
let config_json m =
  let rate = float_of_int m.events /. m.best_dt in
  let op_rate = float_of_int (ops ()) /. m.best_dt in
  Printf.sprintf
    "    {\"name\": %S, \"events\": %d, \"messages_sent\": %d, \
     \"seconds_best\": %.4f, \"calibration_ops_per_sec\": %.0f, \
     \"events_per_sec\": %.0f, \
     \"events_per_calib_op\": %.6f, \"minor_words_per_event\": %.2f, \
     \"ops_per_calib_op\": %.6f, \"minor_words_per_op\": %.2f}"
    m.m_cfg.cname m.events m.sent m.best_dt m.calib rate
    (rate /. m.calib *. 1000.0)
    m.words_per_event
    (op_rate /. m.calib *. 1000.0)
    m.words_per_op

let heartbeats_json h =
  let rate = float_of_int h.beats /. h.beats_dt in
  Printf.sprintf
    "{\"name\": \"heartbeats\", \"nodes\": %d, \"loss\": %.2f, \
     \"horizon\": %.0f, \"beats\": %d, \"seconds_best\": %.4f, \
     \"calibration_ops_per_sec\": %.0f, \
     \"beats_per_sec\": %.0f, \"beats_per_calib_op\": %.6f, \
     \"minor_words_per_beat\": %.2f}"
    n_nodes beat_loss (beat_horizon ()) h.beats h.beats_dt h.beats_calib rate
    (rate /. h.beats_calib *. 1000.0)
    h.words_per_beat

let selection_json ~calib m =
  let rate = float_of_int (selects ()) /. m.sel_dt in
  Printf.sprintf
    "    {\"name\": %S, \"lives\": %d, \"selects\": %d, \
     \"seconds_best\": %.4f, \"selects_per_sec\": %.0f, \
     \"selects_per_calib_op\": %.6f, \"minor_words_per_select\": %.2f}"
    m.sel_row select_lives (selects ()) m.sel_dt rate
    (rate /. calib *. 1000.0)
    m.words_per_select

let availability_json ~calib m =
  let rate = float_of_int (avail_checks ()) /. m.av_dt in
  Printf.sprintf
    "    {\"name\": %S, \"lives\": %d, \"checks\": %d, \
     \"seconds_best\": %.4f, \"checks_per_sec\": %.0f, \
     \"checks_per_calib_op\": %.6f, \"minor_words_per_check\": %.2f}"
    m.av_row avail_lives (avail_checks ()) m.av_dt rate
    (rate /. calib *. 1000.0)
    m.words_per_check

let scan_json m =
  Printf.sprintf
    "    {\"name\": %S, \"sets\": %d, \"checks\": %d, \"seconds\": %.4f, \
     \"checks_per_set\": %.4f}"
    m.sc_row m.sets m.checks m.sc_dt (checks_per_set m)

let profile_json (r : Obs.Prof.report) =
  let rows =
    List.map
      (fun (row : Obs.Prof.row) ->
        Printf.sprintf
          "      {\"category\": %S, \"probes\": %d, \"seconds\": %.4f, \
           \"time_share\": %.4f, \"minor_words\": %.0f, \"alloc_share\": \
           %.4f}"
          row.Obs.Prof.label row.Obs.Prof.probes row.Obs.Prof.seconds
          row.Obs.Prof.time_share row.Obs.Prof.minor_words
          row.Obs.Prof.alloc_share)
      r.Obs.Prof.rows
  in
  Printf.sprintf
    "  \"profile\": {\n\
    \    \"total_seconds\": %.4f,\n\
    \    \"total_minor_words\": %.0f,\n\
    \    \"rows\": [\n%s\n    ]\n\
    \  }"
    r.Obs.Prof.total_seconds r.Obs.Prof.total_minor_words
    (String.concat ",\n" rows)

(* --- Regression gate ------------------------------------------------ *)

(* The baseline is our own BENCH_engine.json: a flat scan is enough to
   pull one numeric field out of one named config object (no JSON
   library in the build). *)
let scan_number json ~anchor ~key =
  let find sub from =
    let n = String.length json and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub json i m = sub then Some (i + m)
      else go (i + 1)
    in
    go from
  in
  match find anchor 0 with
  | None -> None
  | Some p -> (
      match find ("\"" ^ key ^ "\":") p with
      | None -> None
      | Some q ->
          let n = String.length json in
          let q = ref q in
          while
            !q < n && (json.[!q] = ' ' || json.[!q] = '\n' || json.[!q] = '\t')
          do
            incr q
          done;
          let s = !q in
          while
            !q < n
            && (match json.[!q] with
               | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
               | _ -> false)
          do
            incr q
          done;
          float_of_string_opt (String.sub json s (!q - s)))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* One gated row: its name in the baseline, its calibrated rate (when
   gated) and its deterministic amount (words per relay op, beat,
   select or check, or checks per live set) with its column label,
   with the baseline keys of both. *)
type gated = {
  row : string;
  rate : (float * string) option;
  amount : float;
  amount_key : string;
  label : string;
}

let gate ~baseline_path rows =
  let baseline =
    try read_file baseline_path
    with Sys_error msg ->
      Printf.eprintf "error: engine gate: cannot read baseline: %s\n" msg;
      exit 1
  in
  (match (scan_number baseline ~anchor:"\"bench\"" ~key:"fast", !Util.fast)
   with
  | Some b, f when (b <> 0.0) <> f ->
      Printf.eprintf
        "error: engine gate: baseline fast=%b but this run fast=%b\n"
        (b <> 0.0) f;
      exit 1
  | _ -> ());
  let rate_tol = 0.15 and alloc_tol = 0.10 in
  let failed = ref false in
  Printf.printf "\n  gate vs %s (rate -%.0f%%, words and checks +%.0f%%):\n"
    baseline_path (100.0 *. rate_tol) (100.0 *. alloc_tol);
  List.iter
    (fun g ->
      let anchor = Printf.sprintf "\"name\": %S" g.row in
      let b_rate =
        Option.map
          (fun (rel, key) -> (rel, scan_number baseline ~anchor ~key))
          g.rate
      in
      let b_amount = scan_number baseline ~anchor ~key:g.amount_key in
      match (b_rate, b_amount) with
      | Some (_, None), _ | _, None ->
          Printf.eprintf "error: engine gate: row %s missing in baseline\n"
            g.row;
          failed := true
      | _, Some b_amount ->
          let rate_ok, rate_col =
            match b_rate with
            | Some (rel, Some b_rel) ->
                let ok = rel >= b_rel *. (1.0 -. rate_tol) in
                ( ok,
                  Printf.sprintf "per calib-op %8.3f vs %8.3f %s" rel b_rel
                    (if ok then "ok  " else "FAIL") )
            | Some (_, None) | None -> (true, String.make 38 ' ')
          in
          let amount_ok = g.amount <= b_amount *. (1.0 +. alloc_tol) in
          let digits = if g.label = "words" then 2 else 4 in
          Printf.printf "    %-24s %s   %-6s %8.*f vs %8.*f %s\n" g.row
            rate_col g.label digits g.amount digits b_amount
            (if amount_ok then "ok" else "FAIL");
          if not (rate_ok && amount_ok) then failed := true)
    rows;
  if !failed then begin
    Printf.eprintf
      "error: engine bench regressed against the committed baseline\n";
    exit 1
  end
  else Printf.printf "    gate: ok\n"

(* --- Driver --------------------------------------------------------- *)

let run () =
  Util.print_header "Engine hot-path bench (ops/sec, allocations/op)";
  Printf.printf
    "  seed %d, %d nodes, %d ops x %d hops, rpc relay + durable appends\n"
    seed n_nodes (ops ()) hops;
  let calib = calibration () in
  Printf.printf "  calibration: %.0f ops/sec\n%!" calib;
  let measured = List.map measure configs in
  (* Observability must be behaviorally inert: every configuration
     replays the same simulation. *)
  (match measured with
  | first :: rest ->
      List.iter
        (fun m ->
          if m.events <> first.events || m.sent <> first.sent then begin
            Printf.eprintf
              "error: engine bench: config %s dispatched %d events / %d \
               sends, %s dispatched %d / %d - observability perturbed the \
               run\n"
              m.m_cfg.cname m.events m.sent first.m_cfg.cname first.events
              first.sent;
            exit 1
          end)
        rest
  | [] -> ());
  List.iter
    (fun m ->
      Printf.printf
        "  %-14s %9d events  %12.0f events/sec  %8.2f minor words/event  \
         %8.1f minor words/op\n"
        m.m_cfg.cname m.events
        (float_of_int m.events /. m.best_dt)
        m.words_per_event m.words_per_op)
    measured;
  let hb = measure_heartbeats () in
  Printf.printf
    "  %-14s %9d beats   %12.0f beats/sec   %8.2f minor words/beat\n"
    "heartbeats" hb.beats
    (float_of_int hb.beats /. hb.beats_dt)
    hb.words_per_beat;
  let sel = measure_selection () in
  List.iter
    (fun m ->
      Printf.printf "  %-20s %12.0f selects/sec  %8.2f minor words/select\n"
        m.sel_row
        (float_of_int (selects ()) /. m.sel_dt)
        m.words_per_select)
    sel;
  let av = measure_availability () in
  List.iter
    (fun m ->
      Printf.printf "  %-24s %12.0f checks/sec   %8.2f minor words/check\n"
        m.av_row
        (float_of_int (avail_checks ()) /. m.av_dt)
        m.words_per_check)
    av;
  let scans = measure_scans () in
  List.iter
    (fun m ->
      Printf.printf "  %-24s %12.4f checks/set   %8.2f ns/set\n" m.sc_row
        (checks_per_set m)
        (m.sc_dt *. 1e9 /. float_of_int m.sets))
    scans;
  (* Profiled run: where do the full-trace run's time and words go? *)
  let prof_cfg = List.find (fun c -> c.cname = "full-trace") configs in
  let _e, obs, _dt, _dw = run_once prof_cfg ~profile:true in
  let r = Obs.Prof.report (Obs.prof obs) in
  let share_sum field =
    List.fold_left (fun acc row -> acc +. field row) 0.0 r.Obs.Prof.rows
  in
  let t_sum = share_sum (fun (row : Obs.Prof.row) -> row.Obs.Prof.time_share)
  and w_sum =
    share_sum (fun (row : Obs.Prof.row) -> row.Obs.Prof.alloc_share)
  in
  if r.Obs.Prof.total_seconds > 0.0 && abs_float (t_sum -. 1.0) > 0.01 then begin
    Printf.eprintf "error: profile time shares sum to %.4f, not 1\n" t_sum;
    exit 1
  end;
  if r.Obs.Prof.total_minor_words > 0.0 && abs_float (w_sum -. 1.0) > 0.01
  then begin
    Printf.eprintf "error: profile alloc shares sum to %.4f, not 1\n" w_sum;
    exit 1
  end;
  if r.Obs.Prof.truncated > 0 || r.Obs.Prof.unbalanced > 0 then begin
    Printf.eprintf "error: profile probe stack: %d truncated, %d unbalanced\n"
      r.Obs.Prof.truncated r.Obs.Prof.unbalanced;
    exit 1
  end;
  Printf.printf "\n  profile of the full-trace run (shares of probed total):\n";
  List.iter
    (fun (row : Obs.Prof.row) ->
      Printf.printf "    %-26s %5.1f%% time  %5.1f%% allocs\n"
        row.Obs.Prof.label
        (100.0 *. row.Obs.Prof.time_share)
        (100.0 *. row.Obs.Prof.alloc_share))
    r.Obs.Prof.rows;
  let oc = open_out (Util.out_path "BENCH_engine.json") in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"engine\",\n\
    \  \"seed\": %d,\n\
    \  \"nodes\": %d,\n\
    \  \"ops\": %d,\n\
    \  \"hops\": %d,\n\
    \  \"fast\": %b,\n\
    \  \"calibration_ops_per_sec\": %.0f,\n\
    \  \"configs\": [\n%s\n  ],\n\
    \  \"heartbeats\": %s,\n\
    \  \"selection\": [\n%s\n  ],\n\
    \  \"availability\": [\n%s\n  ],\n\
    \  \"scans\": [\n%s\n  ],\n\
     %s\n\
     }\n"
    seed n_nodes (ops ()) hops !Util.fast calib
    (String.concat ",\n" (List.map config_json measured))
    (heartbeats_json hb)
    (String.concat ",\n" (List.map (selection_json ~calib) sel))
    (String.concat ",\n" (List.map (availability_json ~calib) av))
    (String.concat ",\n" (List.map scan_json scans))
    (profile_json r);
  close_out oc;
  Printf.printf "\n  wrote BENCH_engine.json (seed %d)\n" seed;
  match !Util.gate with
  | Some path ->
      let per_calib_op count dt calib =
        float_of_int count /. dt /. calib *. 1000.0
      in
      gate ~baseline_path:path
        (List.map
           (fun m ->
             {
               row = m.m_cfg.cname;
               rate =
                 Some
                   ( per_calib_op (ops ()) m.best_dt m.calib,
                     "ops_per_calib_op" );
               amount = m.words_per_op;
               amount_key = "minor_words_per_op";
               label = "words";
             })
           measured
        @ {
            row = "heartbeats";
            rate =
              Some
                ( per_calib_op hb.beats hb.beats_dt hb.beats_calib,
                  "beats_per_calib_op" );
            amount = hb.words_per_beat;
            amount_key = "minor_words_per_beat";
            label = "words";
          }
          :: List.map
               (fun m ->
                 {
                   row = m.sel_row;
                   rate = None;
                   amount = m.words_per_select;
                   amount_key = "minor_words_per_select";
                   label = "words";
                 })
               sel
        @ List.map
            (fun m ->
              {
                row = m.av_row;
                rate = None;
                amount = m.words_per_check;
                amount_key = "minor_words_per_check";
                label = "words";
              })
            av
        @ List.map
            (fun m ->
              {
                row = m.sc_row;
                rate = None;
                amount = checks_per_set m;
                amount_key = "checks_per_set";
                label = "checks";
              })
            scans)
  | None -> ()
