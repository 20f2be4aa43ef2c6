(* Distributed mutual exclusion over the hierarchical triangle: fifteen
   nodes contend for a critical section through Maekawa-style quorum
   locking, first failure-free, then with two crashed processes.

   This is exactly the scenario the paper's introduction motivates: a
   decentralized lock whose availability survives node crashes because
   any live quorum suffices.

   Run with: dune exec examples/mutex_demo.exe *)

module Engine = Sim.Engine

(* Examples use the result-typed registry API and render errors
   uniformly. *)
let build_system spec =
  match Core.Registry.build spec with
  | Ok s -> s
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let config = Protocols.Client_config.(default |> with_timeout 1000.0)

let run ~label ~faults ~requests =
  let system = build_system "htriang(15)" in
  let engine = Engine.create ~seed:7 ~nodes:15 () in
  let mx =
    Protocols.Mutex.of_config engine ~config ~system ~cs_duration:1.0 ()
  in
  Sim.Failure_injector.scripted engine faults;
  (* Closed-loop contention: every node keeps asking for the lock. *)
  Protocols.Workload.staggered_requests engine ~every:0.2 ~count:requests
    (fun ~client -> Protocols.Mutex.request mx ~node:client);
  Engine.run engine;
  Printf.printf "%s\n" label;
  Printf.printf "  critical sections completed: %d / %d requested\n"
    (Protocols.Mutex.entries mx) requests;
  Printf.printf "  safety violations:           %d (must be 0)\n"
    (Protocols.Mutex.violations mx);
  Printf.printf "  requests with no live quorum: %d\n"
    (Protocols.Mutex.unavailable mx);
  Printf.printf "  messages per entry:          %.1f\n"
    (float_of_int (Engine.messages_sent engine)
    /. float_of_int (max 1 (Protocols.Mutex.entries mx)));
  Printf.printf "  waiting time: %s\n\n"
    (Obs.Metrics.summary (Protocols.Mutex.acquire_latency mx))

let () =
  Printf.printf
    "Maekawa-style mutual exclusion over h-triang(15) quorums\n\n";
  run ~label:"no failures, 45 requests under contention:" ~faults:[]
    ~requests:45;
  (* Crash two processes up front: quorum selection routes around them;
     the h-triang keeps a live quorum with very high probability. *)
  run
    ~label:"processes 3 and 12 crashed at t=0 (live-aware selection):"
    ~faults:
      [
        (0.0, Sim.Failure_injector.Crash 3);
        (0.0, Sim.Failure_injector.Crash 12);
      ]
    ~requests:45;
  (* For contrast: the singleton coterie is a single point of failure;
     crash its only member and nothing can be served. *)
  let system = build_system "singleton(15)" in
  let engine = Engine.create ~seed:8 ~nodes:15 () in
  let mx =
    Protocols.Mutex.of_config engine ~config ~system ~cs_duration:1.0 ()
  in
  Sim.Failure_injector.scripted engine [ (0.0, Sim.Failure_injector.Crash 0) ];
  Protocols.Workload.staggered_requests engine ~every:0.2 ~count:10
    (fun ~client -> Protocols.Mutex.request mx ~node:client);
  Engine.run engine;
  Printf.printf
    "singleton coterie with its only member crashed: %d served, %d refused\n"
    (Protocols.Mutex.entries mx)
    (Protocols.Mutex.unavailable mx)
