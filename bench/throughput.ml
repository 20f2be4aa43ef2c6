(* Store throughput: sessioned/pipelined/batched clients against flat
   majority, h-triang and sharded h-grid systems, swept over n.

   Three sections feed BENCH_throughput.json:

   - closed-loop capacity sweep: n in {3..25}, one session per node
     keeping a pipeline window full.  With per-request service cost, a
     flat majority puts ~n/2 nodes in every quorum so its capacity
     stays flat; h-triang touches ~sqrt(2n) nodes; the sharded h-grid
     splits disjoint keys across disjoint subquorums.  The headline:
     the sharded hierarchical arm overtakes flat majority at n >= 9
     and the gap widens with n (the bench aborts if it ever does not).
   - open-loop overload: Poisson arrivals past capacity; queue growth
     and shedding show where each arm saturates.
   - batch ablation: same load, batch sizes 1/4/16 — one fsync per
     batch is what amortizes a non-zero fsync latency.

   The n=15 closed-loop runs carry a span collector, so each of those
   rows also reports the critical-path breakdown (network / fsync /
   queueing / retransmit) from Obs.Trace_analysis.

   The seed (46), window, batch, delay, fsync and open-loop load are
   Protocols.Experiment's, echoed into BENCH_throughput.json, so any
   row is replayed exactly by `quorumctl throughput`; repeated runs are
   bit-identical. *)

module E = Protocols.Experiment
module T = Protocols.Throughput

let horizon () = E.throughput_horizon ~fast:!Util.fast
let ns () = if !Util.fast then [ 3; 9; 15 ] else [ 3; 5; 7; 9; 12; 15; 20; 25 ]
let breakdown_n = 15
let ablation_sizes = [ 1; 4; 16 ]

(* One arm under the fsync-0.2 calm scenario labelled [label]: prints
   its row and fails on a stale read (regular-register semantics is not
   negotiable at any throughput, and this bench runs in CI). *)
let run_arm ?obs ?(mode = T.Closed) ?(batch = E.batch) ~label arm =
  let o =
    E.run ?obs
      (E.Throughput_cell { arm; mode; window = E.window; batch })
      (E.throughput_scenario ~horizon:(horizon ()) label)
  in
  Option.iter failwith (E.verdict o.E.report);
  Printf.printf "%s\n" (E.row o.E.report);
  match o.E.report with
  | E.Throughput_report r -> r
  | _ -> assert false

let write_json sections =
  let oc = open_out (Util.out_path "BENCH_throughput.json") in
  let section (name, rows) =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name
      (String.concat ",\n" (List.map (fun j -> "    " ^ j) rows))
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"throughput\",\n\
    \  \"fast\": %b,\n\
    \  \"seed\": %d,\n\
    \  \"horizon\": %g,\n\
    \  \"window\": %d,\n\
    \  \"batch\": %d,\n\
    \  \"fsync\": %g,\n\
     %s\n\
     }\n"
    !Util.fast (E.seed E.Throughput) (horizon ()) E.window E.batch E.fsync
    (String.concat ",\n" (List.map section sections));
  close_out oc

let run () =
  Printf.printf "\n== throughput: sessioned store, flat vs hierarchical ==\n";
  Printf.printf
    "(window %d, batch %d, service per_req 0.3 per_batch 0.1, fsync %g)\n"
    E.window E.batch E.fsync;

  (* --- closed-loop capacity sweep --------------------------------- *)
  Printf.printf "\nclosed-loop capacity sweep:\n%s\n" (T.header ());
  let sweep =
    List.concat_map
      (fun n ->
        List.map
          (fun arm ->
            let obs = if n = breakdown_n then Some (Obs.create ()) else None in
            run_arm ?obs ~label:"closed" arm)
          (Util.ok_or_die (T.arms ~n ())))
      (ns ())
  in
  (* The acceptance bar: sharded hierarchical beats flat majority at
     every n >= 9 in the closed-loop sweep. *)
  List.iter
    (fun n ->
      if n >= 9 then
        let ops prefix =
          match
            List.find_opt
              (fun (r : T.report) ->
                r.T.n = n && String.starts_with ~prefix r.T.system)
              sweep
          with
          | Some r -> r.T.ops_per_sec
          | None -> 0.0
        in
        let flat = ops "flat-majority" and sharded = ops "shard-hgrid" in
        if sharded <= flat then
          failwith
            (Printf.sprintf
               "throughput bench: no crossover at n=%d (flat %.2f >= sharded \
                %.2f ops/s)"
               n flat sharded))
    (ns ());

  (* --- open-loop overload ------------------------------------------ *)
  let n = E.open_n in
  Printf.printf
    "\nopen-loop overload (n=%d, offered %.1f ops/s, max_queue %d):\n%s\n" n
    E.open_rate E.open_queue (T.header ());
  let overload =
    List.map
      (run_arm ~mode:(T.Open E.open_rate) ~label:"open")
      (Util.ok_or_die (T.arms ~n ()))
  in

  (* --- batch ablation ---------------------------------------------- *)
  Printf.printf "\nbatch ablation (h-triang, n=%d, closed loop):\n%s\n" n
    (T.header ());
  let ablation =
    List.map
      (fun size ->
        run_arm ~batch:size
          ~label:(Printf.sprintf "batch=%d" size)
          (T.htriang_arm ~n))
      ablation_sizes
  in

  (* Critical-path summary of the instrumented rows. *)
  (match
     List.filter (fun (r : T.report) -> r.T.n = breakdown_n) sweep
   with
  | [] -> ()
  | instrumented ->
      Printf.printf "\ncritical path at n=%d (time in component, closed loop):\n"
        breakdown_n;
      List.iter
        (fun (r : T.report) ->
          let b = r.T.breakdown in
          Printf.printf
            "  %-15s network %8.1f  fsync %8.1f  queueing %8.1f  retransmit \
             %8.1f\n"
            r.T.system b.Obs.Trace_analysis.network
            b.Obs.Trace_analysis.fsync b.Obs.Trace_analysis.queueing
            b.Obs.Trace_analysis.retransmit)
        instrumented);

  let json r = E.json (E.Throughput_report r) in
  write_json
    [
      ("closed_loop", List.map json sweep);
      ("open_loop", List.map json overload);
      ("batch_ablation", List.map json ablation);
    ];
  Printf.printf "\n  wrote BENCH_throughput.json (seed %d)\n"
    (E.seed E.Throughput)
