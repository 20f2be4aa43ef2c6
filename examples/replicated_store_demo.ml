(* Replicated data management with hierarchical grid quorums — the
   workload the h-grid protocol of section 4.1 was designed for.

   Sixteen replicas hold a versioned key-value store.  Reads collect a
   row-cover (one replica per row, recursively), writes install on a
   full-line; because every row-cover intersects every full-line, a
   read always sees the latest completed write.  We drive a read-heavy
   workload through crash-and-recover faults and compare against
   majority quorums on the same universe.

   Run with: dune exec examples/replicated_store_demo.exe *)

module Engine = Sim.Engine
module Rng = Quorum.Rng

(* Examples use the result-typed registry API and render errors
   uniformly. *)
let build_system spec =
  match Core.Registry.build spec with
  | Ok s -> s
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let run ~label ~read_system ~write_system =
  let engine = Engine.create ~seed:5 ~nodes:read_system.Quorum.System.n () in
  let store =
    Protocols.Replicated_store.of_config engine ~read_system ~write_system ()
  in
  (* Transient crashes: every replica spends ~10% of its life down. *)
  Sim.Failure_injector.iid_faults engine ~rng:(Rng.create 3) ~p:0.10
    ~mean_downtime:8.0 ~horizon:500.0;
  let issued =
    Protocols.Workload.read_write_mix engine ~rng:(Rng.create 4) ~rate:2.0
      ~horizon:500.0 ~read_fraction:0.8 ~keys:8
      ~read:(fun ~client ~key ->
        Protocols.Replicated_store.read store ~client ~key)
      ~write:(fun ~client ~key ~value ->
        Protocols.Replicated_store.write store ~client ~key ~value)
  in
  Engine.run engine;
  let reads = Protocols.Replicated_store.reads_ok store in
  let writes = Protocols.Replicated_store.writes_ok store in
  Printf.printf "%s\n" label;
  Printf.printf "  issued %d ops: %d reads ok, %d writes ok, %d timed out, %d refused\n"
    issued reads writes
    (Protocols.Replicated_store.timeouts store)
    (Protocols.Replicated_store.unavailable store);
  Printf.printf "  consistency: %d stale reads (must be 0)\n"
    (Protocols.Replicated_store.stale_reads store);
  let lat = Protocols.Replicated_store.op_latency store in
  Printf.printf "  messages: %d\n  read latency:  %s\n  write latency: %s\n\n"
    (Engine.messages_sent engine)
    (Obs.Metrics.summary ~labels:[ ("op", "read") ] lat)
    (Obs.Metrics.summary ~labels:[ ("op", "write") ] lat)

let () =
  Printf.printf
    "Versioned replicated store, 16 replicas, 10%% transient downtime\n\n";
  (* The paper's replicated-data setting: asymmetric read/write quorums
     from the hierarchical grid — cheap reads (4 replicas), write
     quorums that any read intersects. *)
  run ~label:"h-grid read (row-cover) / write (full-line) quorums:"
    ~read_system:(build_system "hgrid-read(4x4)")
    ~write_system:(build_system "hgrid-write(4x4)");
  (* Symmetric baseline: majority for both operations. *)
  run ~label:"majority quorums for both reads and writes:"
    ~read_system:(build_system "majority(16)")
    ~write_system:(build_system "majority(16)");
  (* Symmetric h-T-grid: one mutual-exclusion quorum family. *)
  run ~label:"h-T-grid quorums for both (mutual-exclusion family):"
    ~read_system:(build_system "htgrid(4x4)")
    ~write_system:(build_system "htgrid(4x4)")
