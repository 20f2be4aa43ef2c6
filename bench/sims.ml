(* End-to-end simulated-protocol comparison: run the quorum mutual
   exclusion and replicated store over the paper's ~15-node lineup and
   report operational metrics (latency, messages, availability under
   faults).  This is the "deployment view" of Tables 2/4: smaller
   quorums mean fewer messages; better availability means fewer refused
   operations under the same fault process. *)

module Engine = Sim.Engine
module Rng = Quorum.Rng

let mutex_comparison () =
  Util.print_header
    "Simulation: mutual exclusion, 40 requests, ~15 nodes, no faults";
  Printf.printf "  %-16s %-8s %-10s %-12s %s\n" "system" "entries"
    "msgs/entry" "mean wait" "violations";
  List.iter
    (fun spec ->
      let system = Util.system spec in
      let engine = Engine.create ~seed:101 ~nodes:system.Quorum.System.n () in
      let mx =
        Protocols.Mutex.of_config engine
          ~config:Protocols.Client_config.(default |> with_timeout 1000.0)
          ~system ~cs_duration:0.5 ()
      in
      Protocols.Workload.staggered_requests engine ~every:0.3 ~count:40
        (fun ~client -> Protocols.Mutex.request mx ~node:client);
      Engine.run engine;
      let entries = Protocols.Mutex.entries mx in
      Printf.printf "  %-16s %-8d %-10.1f %-12.2f %d\n" spec entries
        (float_of_int (Engine.messages_sent engine)
        /. float_of_int (max 1 entries))
        (Obs.Metrics.mean (Protocols.Mutex.acquire_latency mx))
        (Protocols.Mutex.violations mx))
    [
      "majority(15)"; "hqs(5-3)"; "cwlog(14)"; "htgrid(4x4)"; "y(15)";
      "htriang(15)";
    ]

let store_comparison () =
  Util.print_header
    "Simulation: replicated store under iid transient faults (p = 0.15)";
  Printf.printf
    "  (predicted = 1 - F(0.15), the static model: a quorum is fully\n\
    \   live at the instant of selection.  The measured ratio is far\n\
    \   lower because an operation must also keep its selected quorum\n\
    \   and its client alive for the op's full duration - with ~100\n\
    \   time units between per-node crashes and ~3-unit operations over\n\
    \   5-9 members, roughly a quarter of operations lose a member\n\
    \   mid-flight.  Static availability is necessary, not sufficient;\n\
    \   the ranking across systems still follows quorum size.)\n";
  Printf.printf "  %-16s %-10s %-14s %-11s %s\n" "system" "ok ratio"
    "ok (retry=3)" "predicted" "stale";
  let run_store spec retries =
    let system = Util.system spec in
    let engine = Engine.create ~seed:77 ~nodes:system.Quorum.System.n () in
    let store =
      Protocols.Replicated_store.of_config engine
        ~config:
          Protocols.Client_config.(
            default |> with_timeout 30.0 |> with_retries retries)
        ~read_system:system ~write_system:system ()
    in
    Sim.Failure_injector.iid_faults engine ~rng:(Rng.create 13) ~p:0.15
      ~mean_downtime:15.0 ~horizon:600.0;
    let issued =
      Protocols.Workload.read_write_mix engine ~rng:(Rng.create 14) ~rate:1.0
        ~horizon:600.0 ~read_fraction:0.6 ~keys:4
        ~read:(fun ~client ~key ->
          Protocols.Replicated_store.read store ~client ~key)
        ~write:(fun ~client ~key ~value ->
          Protocols.Replicated_store.write store ~client ~key ~value)
    in
    Engine.run engine;
    let ok =
      Protocols.Replicated_store.reads_ok store
      + Protocols.Replicated_store.writes_ok store
    in
    (float_of_int ok /. float_of_int (max 1 issued),
     Protocols.Replicated_store.stale_reads store)
  in
  List.iter
    (fun spec ->
      let system = Util.system spec in
      let ratio0, stale0 = run_store spec 0 in
      let ratio3, stale3 = run_store spec 3 in
      let predicted =
        1.0 -. Analysis.Failure.failure_probability system ~p:0.15
      in
      Printf.printf "  %-16s %-10.3f %-14.3f %-11.3f %d\n" spec ratio0 ratio3
        predicted (stale0 + stale3))
    [ "majority(15)"; "cwlog(14)"; "htgrid(4x4)"; "htriang(15)" ];
  Printf.printf
    "(h-grid read/write split for the replicated-data setting of 4.1:)\n";
  let read_system = Util.system "hgrid-read(4x4)" in
  let write_system = Util.system "hgrid-write(4x4)" in
  let engine = Engine.create ~seed:78 ~nodes:16 () in
  let store =
    Protocols.Replicated_store.of_config engine
      ~config:Protocols.Client_config.(default |> with_timeout 30.0)
      ~read_system ~write_system ()
  in
  let issued =
    Protocols.Workload.read_write_mix engine ~rng:(Rng.create 15) ~rate:1.0
      ~horizon:300.0 ~read_fraction:0.8 ~keys:4
      ~read:(fun ~client ~key ->
        Protocols.Replicated_store.read store ~client ~key)
      ~write:(fun ~client ~key ~value ->
        Protocols.Replicated_store.write store ~client ~key ~value)
  in
  Engine.run engine;
  Printf.printf
    "  hgrid r/w split: %d/%d ops ok, %d stale reads\n"
    (Protocols.Replicated_store.reads_ok store
    + Protocols.Replicated_store.writes_ok store)
    issued
    (Protocols.Replicated_store.stale_reads store)

let run () =
  mutex_comparison ();
  store_comparison ()
