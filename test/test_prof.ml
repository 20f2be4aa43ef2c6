(* Engine self-profiler tests: exclusive-time attribution of the
   Obs.Prof probe stack, the deterministic span sampler, and — the
   property everything else rests on — behavioral inertness: profiling
   and sampling never change what a pinned-seed run computes. *)

module P = Obs.Prof
module S = Obs.Span

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Prof unit tests ------------------------------------------------- *)

let test_null_is_disabled () =
  check "null disabled" false (P.enabled P.null);
  (* Probes on a disabled instance are no-ops, not errors. *)
  P.enter P.null P.Rpc;
  P.leave P.null P.Rpc;
  P.probe P.null P.Durable ignore;
  let r = P.report P.null in
  check "no rows" true (r.P.rows = []);
  check "no anomalies" true (r.P.truncated = 0 && r.P.unbalanced = 0)

let spin () =
  (* Burn a little time and allocation so probed intervals are
     non-trivial. *)
  let acc = ref [] in
  for i = 0 to 5_000 do
    acc := i :: !acc;
    if i land 1023 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity !acc)

let test_exclusive_attribution () =
  let p = P.create ~enabled:true () in
  P.probe p P.Rpc (fun () ->
      spin ();
      (* The nested interval must charge to Durable, not Rpc. *)
      P.probe p P.Durable spin;
      spin ());
  let r = P.report p in
  let row c =
    List.find_opt (fun (row : P.row) -> row.P.label = P.name c) r.P.rows
  in
  check "rpc row present" true (row P.Rpc <> None);
  check "durable row present" true (row P.Durable <> None);
  (match row P.Rpc with
  | Some row -> check_int "rpc counted once" 1 row.P.probes
  | None -> ());
  check "balanced" true (r.P.truncated = 0 && r.P.unbalanced = 0);
  (* Exclusive attribution: shares sum to 1 (within float noise). *)
  let tsum =
    List.fold_left (fun a (row : P.row) -> a +. row.P.time_share) 0.0 r.P.rows
  and wsum =
    List.fold_left (fun a (row : P.row) -> a +. row.P.alloc_share) 0.0 r.P.rows
  in
  if r.P.total_seconds > 0.0 then
    check "time shares sum to 1" true (abs_float (tsum -. 1.0) < 1e-6);
  if r.P.total_minor_words > 0.0 then
    check "alloc shares sum to 1" true (abs_float (wsum -. 1.0) < 1e-6)

(* A probe edge allocates nothing of its own: a probe around a function
   that allocates nothing is charged 0 minor words, and one around a
   function that allocates k words is charged exactly k. *)
let test_probe_charges_exact_words () =
  let p = P.create ~enabled:true () in
  let words cat =
    let rows = (P.report p).P.rows in
    match List.find_opt (fun (row : P.row) -> row.P.category = cat) rows with
    | Some row -> row.P.minor_words
    | None -> Alcotest.fail ("no row for " ^ P.name cat)
  in
  let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
  let quiet () = ignore (Sys.opaque_identity (build 0 [])) in
  (* 50 cons cells of 3 words each. *)
  let noisy () = ignore (Sys.opaque_identity (build 50 [])) in
  P.enter p P.Loop;
  for _ = 1 to 100 do
    P.enter p P.Heap;
    quiet ();
    P.leave p P.Heap;
    P.enter p P.Rpc;
    noisy ();
    P.leave p P.Rpc
  done;
  P.leave p P.Loop;
  Alcotest.(check (float 0.0)) "non-allocating probe" 0.0 (words P.Heap);
  Alcotest.(check (float 0.0)) "150 words a probe" 15_000.0 (words P.Rpc);
  Alcotest.(check (float 0.0)) "edges charge the parent nothing" 0.0
    (words P.Loop)

let test_unbalanced_leave_counted () =
  let p = P.create ~enabled:true () in
  P.enter p P.Rpc;
  P.leave p P.Durable;  (* category mismatch *)
  P.leave p P.Rpc;  (* underflow: the stack is already empty *)
  let r = P.report p in
  check "unbalanced counted" true (r.P.unbalanced >= 2);
  P.clear p;
  let r = P.report p in
  check "clear resets rows" true (r.P.rows = []);
  check_int "clear resets anomalies" 0 r.P.unbalanced

let test_probe_exception_safe () =
  let p = P.create ~enabled:true () in
  (match P.probe p P.Rpc (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the exception to propagate");
  (* The probe closed on the way out: further use stays balanced. *)
  P.probe p P.Durable spin;
  let r = P.report p in
  check "balanced after raise" true (r.P.unbalanced = 0 && r.P.truncated = 0)

let test_render_has_total_row () =
  let p = P.create ~enabled:true () in
  P.probe p P.Rpc spin;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  check "text render has total" true (contains (P.render p) "total");
  check "markdown render has total" true
    (contains (P.render_markdown p) "**total**");
  check "markdown names the category" true
    (contains (P.render_markdown p) "sim.rpc")

(* --- Deterministic span sampling ------------------------------------- *)

let keep_pattern ~seed ~keep_1_in ~roots =
  let sp = S.create () in
  S.set_sampler sp ~seed ~keep_1_in;
  List.init roots (fun i ->
      S.start sp ~time:(float_of_int i) ~node:0 "root" <> S.sampled_out)

let test_sampler_extremes () =
  check "k=1 keeps every root" true
    (List.for_all Fun.id (keep_pattern ~seed:5 ~keep_1_in:1 ~roots:50));
  check "k=0 drops every root" true
    (List.for_all not (keep_pattern ~seed:5 ~keep_1_in:0 ~roots:50));
  check "negative k rejected" true
    (match
       let sp = S.create () in
       S.set_sampler sp ~seed:1 ~keep_1_in:(-1)
     with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_sampler_deterministic_and_seeded () =
  let a = keep_pattern ~seed:7 ~keep_1_in:4 ~roots:200 in
  let b = keep_pattern ~seed:7 ~keep_1_in:4 ~roots:200 in
  check "same seed, same decisions" true (a = b);
  let kept = List.length (List.filter Fun.id a) in
  (* 1-in-4 over 200 roots: the splitmix finalizer should land in a
     loose band around 50, and must keep at least one and not all. *)
  check "rate in band" true (kept > 20 && kept < 90);
  let c = keep_pattern ~seed:8 ~keep_1_in:4 ~roots:200 in
  check "different seed, different decisions" true (a <> c)

let test_descendants_follow_root () =
  let sp = S.create () in
  S.set_sampler sp ~seed:3 ~keep_1_in:2;
  let sampled_child_checked = ref false and kept_child_checked = ref false in
  for i = 0 to 49 do
    let root = S.start sp ~time:(float_of_int i) ~node:0 "root" in
    let child = S.start sp ~time:(float_of_int i) ~node:1 ~parent:root "c" in
    if root = S.sampled_out then begin
      sampled_child_checked := true;
      check "child of a sampled-out root is sampled out" true
        (child = S.sampled_out);
      (* Finishing a sampled-out id is a no-op, not an error. *)
      S.finish sp ~time:(float_of_int i +. 1.0) child;
      S.finish sp ~time:(float_of_int i +. 1.0) root
    end
    else begin
      kept_child_checked := true;
      check "child of a kept root is kept" true (child <> S.sampled_out);
      S.finish sp ~time:(float_of_int i +. 1.0) child;
      S.finish sp ~time:(float_of_int i +. 1.0) root
    end
  done;
  check "both branches exercised" true
    (!sampled_child_checked && !kept_child_checked);
  check_int "roots seen" 50 (S.roots_seen sp);
  check_int "kept spans = 2 per kept root" (2 * S.roots_kept sp) (S.count sp);
  check "open-span accounting clean" true (S.open_count sp = 0);
  (* Sampling must not weaken error detection for real ids. *)
  check "unknown id still raises" true
    (match S.finish sp ~time:99.0 12345 with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- Behavioral inertness on a pinned chaos run ---------------------- *)

let chaos_fingerprint ~seed ~profile ?span_keep_1_in () =
  let obs =
    Obs.create ~trace_capacity:(1 lsl 16) ~profile ?span_keep_1_in
      ~span_sample_seed:seed ()
  in
  let system = Core.Registry.build_exn "htriang(10)" in
  let scenario =
    Protocols.Chaos.scenario_of_label ~n:10 ~horizon:60.0 "loss+burst"
  in
  let report = Protocols.Chaos.run_mutex ~seed ~obs ~system scenario in
  (report, obs)

let profiling_is_inert =
  QCheck.Test.make ~name:"profiling on/off: bit-identical chaos run" ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let off, _ = chaos_fingerprint ~seed ~profile:false () in
      let on, obs = chaos_fingerprint ~seed ~profile:true () in
      (* The profiler must have actually run... *)
      (P.report (Obs.prof obs)).P.rows <> []
      (* ...and the simulated results must be exactly those of the
         unprofiled run (the chaos report is plain data: entries,
         violations, retransmissions, latencies...). *)
      && off = on)

let sampling_is_inert =
  QCheck.Test.make ~name:"span sampling 1-in-k vs full: bit-identical run"
    ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 2 8))
    (fun (seed, k) ->
      let full, full_obs = chaos_fingerprint ~seed ~profile:false () in
      let sampled, obs =
        chaos_fingerprint ~seed ~profile:false ~span_keep_1_in:k ()
      in
      let sp = Obs.spans obs in
      full = sampled
      (* Same population of root spans was offered... *)
      && S.roots_seen sp = List.length (S.roots (Obs.spans full_obs))
      (* ...and the sampler genuinely thinned the recording. *)
      && S.roots_kept sp < S.roots_seen sp
      && S.count sp < S.count (Obs.spans full_obs))

let test_no_sink_allocates_less () =
  (* The zero-allocation guards must make a sink-less run strictly
     cheaper than a fully-observed one of the same seed. *)
  let words ~sinks =
    let obs =
      if sinks then Obs.create ~trace_capacity:(1 lsl 16) ()
      else begin
        let obs = Obs.create ~trace_capacity:0 ~span_keep_1_in:0 () in
        Obs.Metrics.set_enabled (Obs.metrics obs) false;
        obs
      end
    in
    let system = Core.Registry.build_exn "htriang(10)" in
    let scenario =
      Protocols.Chaos.scenario_of_label ~n:10 ~horizon:60.0 "loss+burst"
    in
    let w0 = Gc.minor_words () in
    ignore (Protocols.Chaos.run_mutex ~seed:11 ~obs ~system scenario);
    Gc.minor_words () -. w0
  in
  let with_sinks = words ~sinks:true and without = words ~sinks:false in
  check "no-sink run allocates less" true (without < with_sinks)

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "null instance" `Quick test_null_is_disabled;
          Alcotest.test_case "exclusive attribution" `Quick
            test_exclusive_attribution;
          Alcotest.test_case "exact words" `Quick
            test_probe_charges_exact_words;
          Alcotest.test_case "unbalanced probes" `Quick
            test_unbalanced_leave_counted;
          Alcotest.test_case "exception safety" `Quick
            test_probe_exception_safe;
          Alcotest.test_case "render" `Quick test_render_has_total_row;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "extremes" `Quick test_sampler_extremes;
          Alcotest.test_case "deterministic" `Quick
            test_sampler_deterministic_and_seeded;
          Alcotest.test_case "descendants follow root" `Quick
            test_descendants_follow_root;
        ] );
      ( "inertness",
        [
          QCheck_alcotest.to_alcotest profiling_is_inert;
          QCheck_alcotest.to_alcotest sampling_is_inert;
          Alcotest.test_case "no-sink allocates less" `Quick
            test_no_sink_allocates_less;
        ] );
    ]
