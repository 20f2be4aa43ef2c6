(* Every ledger workload at a tiny size: it passes its own correctness
   gate, emits exactly the metrics BENCHMARK.json declares, replays the
   same simulated digest in a second process-equivalent run, and its
   profile shares sum to 1. *)

open E2e_ledger

let tiny =
  {
    Workloads.store_horizon = 15.0;
    chaos_horizon = 15.0;
    churn_horizon = 20.0;
    exact = [ "grid-rw(2x3)"; "majority(8)"; "htgrid(2x2)"; "htriang(6)" ];
    sweep_n = 6;
    sweep_trials = 500;
  }

let declared key =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Error msg -> Alcotest.failf "BENCHMARK.json: %s" msg
  | Ok j ->
      List.map
        (fun m ->
          let field k =
            Option.value ~default:"?" (Option.bind (Json.member k m) Json.to_str)
          in
          ( field "name",
            field "unit",
            field "better",
            Option.bind (Json.member "bound" m) Json.to_num ))
        (Json.to_list (Option.value ~default:Json.Null (Json.member key j)))

let catalogue ms =
  List.map
    (fun (m : Ledger.metric) ->
      (m.Ledger.name, m.Ledger.unit_, m.Ledger.better, m.Ledger.bound))
    ms

let metrics =
  let pp_metric ppf (name, unit_, better, bound) =
    Format.fprintf ppf "%s [%s] %s %a" name unit_ better
      Format.(pp_print_option pp_print_float)
      bound
  in
  Alcotest.(list (testable pp_metric ( = )))

let test_catalogue () =
  Alcotest.check metrics "end_to_end" (declared "end_to_end") (catalogue Ledger.end_to_end);
  Alcotest.check metrics "per_layer" (declared "per_layer") (catalogue Ledger.per_layer)

let run w = Ledger.run ~size:tiny ~seconds:0.0 ~trace:true w ~seed:3

let test_workload (w : Workloads.t) () =
  let r = run w in
  Alcotest.(check (list string)) "no failed check" [] r.Ledger.problems;
  Alcotest.(check int) "no failed cell" 0 r.Ledger.failed;
  Alcotest.(check (list string))
    "e2e names"
    (List.map (fun (m : Ledger.metric) -> m.Ledger.name) Ledger.end_to_end)
    (List.map fst r.Ledger.e2e);
  Alcotest.(check (list string))
    "per-layer names"
    (List.map (fun (m : Ledger.metric) -> m.Ledger.name) Ledger.per_layer)
    (List.map fst r.Ledger.layers);
  List.iter
    (fun (k, v) -> if not (v > 0.0) then Alcotest.failf "%s = %g, not positive" k v)
    r.Ledger.e2e;
  (match r.Ledger.tracer with
  | None -> Alcotest.fail "no traced rep"
  | Some t ->
      if t.Tracer.share_sums = [] then Alcotest.fail "no profile absorbed";
      List.iter
        (fun (i, s) -> Alcotest.failf "profile %d: time shares sum to %g" i s)
        (Tracer.bad_share_sums t));
  Alcotest.(check string) "digest replays" r.Ledger.digest (run w).Ledger.digest

let test_stats () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles xs in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stats.median xs);
  let j = Json.Obj [ ("a", Json.List [ Json.Num 0.1; Json.Null; Json.Str "x\"y" ]) ] in
  Alcotest.(check bool) "json round trip" true (Json.parse (Json.to_string j) = Ok j)

let () =
  Alcotest.run "e2e"
    [
      ( "ledger",
        Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick test_catalogue
        :: Alcotest.test_case "stats and json" `Quick test_stats
        :: List.map
             (fun (w : Workloads.t) ->
               Alcotest.test_case w.Workloads.name `Quick (test_workload w))
             Workloads.all );
    ]
