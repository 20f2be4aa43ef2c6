(* The failure-detector contract, as executable properties: over random
   crash/recovery schedules and both detector modes, a crashed node is
   suspected by every live observer within the mode's detection bound
   (completeness) and trusted again within a beat period of recovering
   (eventual accuracy).  Plus accrual-mode unit tests and a safety
   smoke over the fd stress scenarios — the fast CI gate for the
   detector stack. *)

module Fd = Sim.Failure_detector
module Engine = Sim.Engine
module Chaos = Protocols.Chaos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_world ?(seed = 5) ?mode ?(period = 1.0) ?(timeout = 4.0) ?network
    ~nodes () =
  let engine = Engine.create ~seed ~nodes ?network () in
  let fd = Fd.create engine ~period ~timeout ?mode () in
  Engine.set_handlers engine
    {
      on_message = (fun _ ~node:_ ~src:_ () -> ());
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node ~amnesia:_ -> Fd.on_recover fd ~node);
    };
  (fd, engine)

(* Detection bound per mode.  Fixed timeout: [timeout] of silence plus
   the beat period granularity plus network latency.  Accrual: phi
   reaches tau after ~2.303 * tau * mean inter-arrival; the mean
   concentrates near [period] (base latency cancels between
   consecutive beats), budgeted here at twice that for jitter. *)
let detect_bound ~period ~timeout = function
  | None -> timeout +. (2.0 *. period) +. 3.0
  | Some tau ->
      Float.max timeout (2.303 *. tau *. (2.0 *. period))
      +. (2.0 *. period) +. 3.0

(* --- The contract, as qcheck properties over random schedules -------- *)

(* (nodes, seed, crash time, extra downtime, accrual threshold option);
   the victim is derived from the seed. *)
let schedule_gen =
  QCheck.Gen.(
    (fun nodes seed crash_t extra tau -> (nodes, seed, crash_t, extra, tau))
    <$> int_range 3 8 <*> int_range 0 999 <*> int_range 8 20
    <*> int_range 0 10
    <*> oneofl [ None; Some 1.0; Some 1.5; Some 2.0 ])

let schedule_arb =
  QCheck.make
    ~print:(fun (n, seed, ct, extra, tau) ->
      Printf.sprintf "n=%d seed=%d crash@%d +%d %s" n seed ct extra
        (match tau with
        | None -> "fixed"
        | Some tau -> Printf.sprintf "accrual(%g)" tau))
    schedule_gen

let fd_contract =
  QCheck.Test.make
    ~name:
      "completeness within the detection bound, accuracy within a period \
       of recovery" ~count:40 schedule_arb
    (fun (nodes, seed, crash_t, extra, tau) ->
      let period = 1.0 and timeout = 4.0 in
      let mode =
        Option.map
          (fun threshold ->
            Fd.Accrual { threshold; window = 16; min_samples = 3 })
          tau
      in
      let fd, engine = make_world ~seed ?mode ~period ~timeout ~nodes () in
      let victim = seed mod nodes in
      let crash_time = float_of_int crash_t in
      let detect_by = crash_time +. detect_bound ~period ~timeout tau in
      let recover_time = detect_by +. float_of_int extra in
      let trust_by = recover_time +. period +. 3.0 in
      Engine.crash_at engine ~time:crash_time ~node:victim;
      Engine.recover_at engine ~time:recover_time ~node:victim;
      let ok = ref true in
      let each_observer f =
        for i = 0 to nodes - 1 do
          if i <> victim then ok := !ok && f i
        done
      in
      (* Trusted while alive (beats have been flowing since t~1). *)
      Engine.schedule engine ~time:(crash_time -. 0.5) (fun () ->
          each_observer (fun i -> not (Fd.suspects fd ~node:i victim)));
      (* Completeness: every live observer suspects the crashed node,
         and its view excludes it. *)
      Engine.schedule engine ~time:detect_by (fun () ->
          each_observer (fun i ->
              Fd.suspects fd ~node:i victim
              && not (Quorum.Bitset.mem (Fd.view fd ~node:i) victim)));
      (* Eventual accuracy: suspicion clears shortly after recovery,
         everywhere. *)
      Engine.schedule engine ~time:trust_by (fun () ->
          each_observer (fun i -> not (Fd.suspects fd ~node:i victim)));
      let keeper = (victim + 1) mod nodes in
      ignore (Engine.timer engine ~node:keeper ~delay:(trust_by +. 1.0) ignore);
      Engine.run engine;
      !ok)

(* Suspicion is normalized across modes: >= 1.0 exactly when suspected,
   0.0 for self, graded below 1.0 for trusted live peers. *)
let suspicion_normalized =
  QCheck.Test.make ~name:"suspicion >= 1.0 coincides with suspects"
    ~count:20 schedule_arb
    (fun (nodes, seed, crash_t, _, tau) ->
      let period = 1.0 and timeout = 4.0 in
      let mode =
        Option.map
          (fun threshold ->
            Fd.Accrual { threshold; window = 16; min_samples = 3 })
          tau
      in
      let fd, engine = make_world ~seed ?mode ~period ~timeout ~nodes () in
      let victim = seed mod nodes in
      let crash_time = float_of_int crash_t in
      Engine.crash_at engine ~time:crash_time ~node:victim;
      let ok = ref true in
      let probe () =
        for i = 0 to nodes - 1 do
          ok := !ok && Fd.suspicion fd ~node:i i = 0.0;
          for j = 0 to nodes - 1 do
            if j <> i then begin
              let s = Fd.suspicion fd ~node:i j in
              let sus = Fd.suspects fd ~node:i j in
              (* The strict/large comparison at exactly 1.0 differs by
                 mode; probe away from the boundary. *)
              if s > 1.0 +. 1e-6 then ok := !ok && sus
              else if s < 1.0 -. 1e-6 then ok := !ok && not sus
            end
          done
        done
      in
      Engine.schedule engine ~time:(crash_time -. 0.5) probe;
      Engine.schedule engine
        ~time:(crash_time +. detect_bound ~period ~timeout tau)
        probe;
      let keeper = (victim + 1) mod nodes in
      ignore
        (Engine.timer engine ~node:keeper ~delay:(crash_time +. 30.0) ignore);
      Engine.run engine;
      !ok)

(* --- Accrual mode: unit tests ---------------------------------------- *)

let test_accrual_create_validates () =
  let engine = Engine.create ~seed:1 ~nodes:3 () in
  let mk mode = ignore (Fd.create engine ~mode ()) in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "threshold must be positive" true
    (raises (fun () ->
         mk (Fd.Accrual { threshold = 0.0; window = 8; min_samples = 3 })));
  check "window >= 2" true
    (raises (fun () ->
         mk (Fd.Accrual { threshold = 1.0; window = 1; min_samples = 1 })));
  check "min_samples within window" true
    (raises (fun () ->
         mk (Fd.Accrual { threshold = 1.0; window = 4; min_samples = 5 })));
  check "timeout must exceed period" true
    (raises (fun () ->
         ignore (Fd.create engine ~period:2.0 ~timeout:1.0 ())))

let test_accrual_detects_and_heals () =
  let mode = Fd.Accrual { threshold = 1.5; window = 16; min_samples = 3 } in
  let fd, engine = make_world ~mode ~timeout:6.0 ~nodes:5 () in
  Engine.crash_at engine ~time:12.0 ~node:2;
  Engine.recover_at engine ~time:30.0 ~node:2;
  Engine.schedule engine ~time:11.5 (fun () ->
      check "trusted while beating" false (Fd.suspects fd ~node:0 2);
      check "graded level low while beating" true
        (Fd.suspicion fd ~node:0 2 < 1.0));
  (* phi = log10(e) * elapsed / mean ~ 0.434 * elapsed at mean ~ 1.0:
     threshold 1.5 crosses near elapsed ~ 3.5; well before t = 22. *)
  Engine.schedule engine ~time:22.0 (fun () ->
      check "crashed node suspected" true (Fd.suspects fd ~node:0 2);
      check "level above threshold" true (Fd.suspicion fd ~node:0 2 >= 1.0);
      check_int "only the victim" 1 (Fd.suspected_count fd ~node:0));
  Engine.schedule engine ~time:35.0 (fun () ->
      check "trusted again after recovery" false (Fd.suspects fd ~node:0 2);
      check_int "nobody suspected" 0 (Fd.suspected_count fd ~node:0));
  ignore (Engine.timer engine ~node:0 ~delay:36.0 ignore);
  Engine.run engine

let test_accrual_stats_measure_detection () =
  let mode = Fd.Accrual { threshold = 1.5; window = 16; min_samples = 3 } in
  let fd, engine = make_world ~mode ~timeout:6.0 ~nodes:5 () in
  Engine.crash_at engine ~time:12.0 ~node:2;
  ignore (Engine.timer engine ~node:0 ~delay:30.0 ignore);
  Engine.run engine;
  let st = Fd.stats fd ~node:0 in
  check_int "one detection at node 0" 1 st.Fd.detections;
  check "latency positive" true (st.Fd.mean_detect > 0.0);
  check "latency within the accrual bound" true (st.Fd.mean_detect < 10.0);
  check_int "no false positives in a calm run" 0 st.Fd.false_positives;
  check "transition recorded" true (st.Fd.transitions >= 1)

let test_mode_accessors () =
  let mode = Fd.Accrual { threshold = 2.0; window = 8; min_samples = 2 } in
  let engine = Engine.create ~seed:1 ~nodes:3 () in
  let fd = Fd.create engine ~period:0.5 ~timeout:3.0 ~mode () in
  check "mode is accrual" true (Fd.mode fd = mode);
  Alcotest.(check (float 1e-9)) "period" 0.5 (Fd.period fd);
  Alcotest.(check (float 1e-9)) "timeout kept as fallback" 3.0 (Fd.timeout fd)

(* --- Lazy arrivals against an eager reference ------------------------ *)

(* The detector as it would be with every heartbeat a queued background
   message: [Beat] is sent with [Engine.send ~background:true] and
   [last_heard] and the accrual ring are updated when it is delivered.
   Same beat chain (stagger, next-due check, recovery restart), same
   suspicion arithmetic. *)
module Eager = struct
  type wire = Beat

  type t = {
    period : float;
    timeout : float;
    mode : Fd.mode;
    n : int;
    last_heard : float array array;
    next_due : float array;
    ring : float array array array;
    ring_len : int array array;
    ring_pos : int array array;
    ring_sum : float array array;
  }

  let create ~period ~timeout ~mode ~nodes =
    let window =
      match mode with Fd.Fixed_timeout _ -> 1 | Fd.Accrual a -> a.window
    in
    {
      period;
      timeout;
      mode;
      n = nodes;
      last_heard = Array.make_matrix nodes nodes 0.0;
      next_due = Array.make nodes infinity;
      ring = Array.init nodes (fun _ -> Array.make_matrix nodes window 0.0);
      ring_len = Array.make_matrix nodes nodes 0;
      ring_pos = Array.make_matrix nodes nodes 0;
      ring_sum = Array.make_matrix nodes nodes 0.0;
    }

  let rec schedule_beat t engine ~node ~delay =
    t.next_due.(node) <- Engine.now engine +. delay;
    ignore
      (Engine.timer engine ~background:true ~node ~delay (fun () ->
           beat t engine ~node))

  and beat t engine ~node =
    if abs_float (Engine.now engine -. t.next_due.(node)) <= 1e-9 then begin
      for dst = 0 to t.n - 1 do
        if dst <> node then Engine.send ~background:true engine ~src:node ~dst Beat
      done;
      schedule_beat t engine ~node ~delay:t.period
    end

  let start t engine =
    for i = 0 to t.n - 1 do
      schedule_beat t engine ~node:i
        ~delay:
          (t.period *. (0.25 +. (0.75 *. float_of_int i /. float_of_int t.n)))
    done

  let heard t engine ~node ~from =
    let now = Engine.now engine in
    (match t.mode with
    | Fd.Fixed_timeout _ -> ()
    | Fd.Accrual { window; _ } ->
        let interval = now -. t.last_heard.(node).(from) in
        if interval > 0.0 && interval <= t.timeout then begin
          let ring = t.ring.(node).(from) in
          let len = t.ring_len.(node).(from) in
          let pos = t.ring_pos.(node).(from) in
          if len < window then t.ring_len.(node).(from) <- len + 1
          else
            t.ring_sum.(node).(from) <- t.ring_sum.(node).(from) -. ring.(pos);
          ring.(pos) <- interval;
          t.ring_sum.(node).(from) <- t.ring_sum.(node).(from) +. interval;
          t.ring_pos.(node).(from) <- (pos + 1) mod window
        end);
    t.last_heard.(node).(from) <- now

  let on_recover t engine ~node =
    for j = 0 to t.n - 1 do
      t.last_heard.(node).(j) <- Engine.now engine
    done;
    schedule_beat t engine ~node ~delay:(t.period *. 0.5)

  let suspicion t engine ~node j =
    if j = node then 0.0
    else
      let elapsed = Engine.now engine -. t.last_heard.(node).(j) in
      let len = t.ring_len.(node).(j) in
      match t.mode with
      | Fd.Fixed_timeout timeout -> elapsed /. timeout
      | Fd.Accrual { threshold; min_samples; _ } ->
          let mean =
            if len = 0 then 0.0 else t.ring_sum.(node).(j) /. float_of_int len
          in
          if len < min_samples || mean <= 0.0 then elapsed /. t.timeout
          else 0.4342944819032518 *. elapsed /. mean /. threshold

  let suspects t engine ~node j =
    j <> node
    &&
    let elapsed = Engine.now engine -. t.last_heard.(node).(j) in
    let len = t.ring_len.(node).(j) in
    match t.mode with
    | Fd.Fixed_timeout timeout -> elapsed > timeout
    | Fd.Accrual { threshold; min_samples; _ } ->
        let mean =
          if len = 0 then 0.0 else t.ring_sum.(node).(j) /. float_of_int len
        in
        if len < min_samples || mean <= 0.0 then elapsed > t.timeout
        else 0.4342944819032518 *. elapsed /. mean >= threshold

  let view t engine ~node =
    List.filter (fun j -> not (suspects t engine ~node j)) (List.init t.n Fun.id)
end

type fault =
  | Crash of int * float * float option * bool
      (** node, crash time, recovery time, amnesia *)
  | Cut of int list * float * float  (** group, from, heal *)
  | Link of int * int * float * float * float  (** src, dst, loss, from, to *)
  | Slow of int * float * float * float  (** node, extra latency, from, to *)

type diff_case = {
  d_nodes : int;
  d_seed : int;
  d_accrual : bool;
  d_jitter : float;
  d_faults : fault list;
  d_probes : float list;
  d_split : float;  (** [run ~until] stops here; probed between runs *)
}

let show_fault = function
  | Crash (i, t, r, a) ->
      Printf.sprintf "crash %d@%g%s%s" i t
        (match r with Some r -> Printf.sprintf " up@%g" r | None -> "")
        (if a then " amnesia" else "")
  | Cut (g, a, b) ->
      Printf.sprintf "cut [%s] %g-%g" (String.concat "," (List.map string_of_int g)) a b
  | Link (s, d, p, a, b) -> Printf.sprintf "link %d->%d %g %g-%g" s d p a b
  | Slow (i, x, a, b) -> Printf.sprintf "slow %d +%g %g-%g" i x a b

(* Times on a 1/16 grid: with zero jitter, staggered beat rounds and
   arrivals land on it too, so probes and faults tie with arrivals and
   the seq order decides. *)
let diff_gen =
  QCheck.Gen.(
    let* nodes = int_range 3 6 in
    let node = int_bound (nodes - 1) in
    let at = map (fun k -> float_of_int k /. 16.0) (int_range 8 (16 * 24)) in
    let span = map (fun k -> float_of_int k /. 16.0) (int_range 1 (16 * 8)) in
    let fault =
      oneof
        [
          map4
            (fun i t r a -> Crash (i, t, Option.map (( +. ) t) r, a))
            node at (opt span) bool;
          map3
            (fun g t d -> Cut (List.sort_uniq compare g, t, t +. d))
            (list_size (int_range 1 (nodes - 1)) node) at span;
          (let* s = node and* d = node and* p = float_range 0.1 0.9 in
           let* t = at and* len = span in
           return (Link (s, d, p, t, t +. len)));
          map4 (fun i x t d -> Slow (i, x, t, t +. d)) node (float_range 0.5 3.0) at span;
        ]
    in
    let* seed = int_bound 9999 and* accrual = bool in
    let* jitter = oneofl [ 0.0; 0.0; 0.2 ] in
    let* faults = list_size (int_range 0 6) fault in
    let* probes = list_size (int_range 1 30) at in
    let* split = at in
    return
      {
        d_nodes = nodes;
        d_seed = seed;
        d_accrual = accrual;
        d_jitter = jitter;
        d_faults = faults;
        d_probes = probes;
        d_split = split;
      })

let diff_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "n=%d seed=%d %s jitter=%g split=%g faults=[%s] probes=[%s]"
        c.d_nodes c.d_seed
        (if c.d_accrual then "accrual" else "fixed")
        c.d_jitter c.d_split
        (String.concat "; " (List.map show_fault c.d_faults))
        (String.concat " " (List.map string_of_float c.d_probes)))
    diff_gen

(* Run one detector world over the case's schedule; each probe logs
   every observer's suspicion of every peer and its view.  Fault and
   probe events are pushed in the same order in both worlds, so they
   get the same seqs. *)
let diff_world c ~install =
  let network = Sim.Network.create ~jitter:c.d_jitter () in
  let period = 1.0 and timeout = 3.0 in
  let mode =
    if c.d_accrual then Fd.Accrual { threshold = 1.5; window = 6; min_samples = 2 }
    else Fd.Fixed_timeout timeout
  in
  let log = ref [] in
  let engine, read = install ~network ~period ~timeout ~mode in
  let probe () =
    for i = 0 to c.d_nodes - 1 do
      let sus, view = read ~node:i in
      log := (Engine.now engine, i, sus, view) :: !log
    done
  in
  let at time f = Engine.schedule engine ~time f in
  List.iter
    (function
      | Crash (i, t, r, amnesia) ->
          Engine.crash_at engine ~time:t ~node:i;
          Option.iter (fun r -> Engine.recover_at ~amnesia engine ~time:r ~node:i) r
      | Cut (group_a, a, b) ->
          let net = Engine.network engine in
          let cut = ref None in
          at a (fun () -> cut := Some (Sim.Network.partition net ~group_a));
          at b (fun () -> Option.iter (Sim.Network.heal net) !cut)
      | Link (src, dst, p, a, b) ->
          let net = Engine.network engine in
          at a (fun () -> Sim.Network.set_link_loss net ~src ~dst p);
          at b (fun () -> Sim.Network.set_link_loss net ~src ~dst 0.0)
      | Slow (i, x, a, b) ->
          let net = Engine.network engine in
          at a (fun () -> Sim.Network.set_slowdown net ~node:i x);
          at b (fun () -> Sim.Network.set_slowdown net ~node:i 0.0))
    c.d_faults;
  List.iter (fun t -> at t probe) c.d_probes;
  ignore (Engine.timer engine ~node:0 ~delay:26.0 ignore);
  Engine.run ~until:c.d_split engine;
  probe ();
  Engine.run engine;
  probe ();
  List.rev !log

let lazy_world c =
  diff_world c ~install:(fun ~network ~period ~timeout ~mode ->
      let fd, engine =
        make_world ~seed:c.d_seed ~mode ~period ~timeout ~network
          ~nodes:c.d_nodes ()
      in
      ( engine,
        fun ~node ->
          ( List.init c.d_nodes (fun j -> Fd.suspicion fd ~node j),
            Quorum.Bitset.to_list (Fd.view fd ~node) ) ))

let eager_world c =
  diff_world c ~install:(fun ~network ~period ~timeout ~mode ->
      let r = Eager.create ~period ~timeout ~mode ~nodes:c.d_nodes in
      let handlers : Eager.wire Engine.handlers =
        {
          on_message =
            (fun e ~node ~src Eager.Beat -> Eager.heard r e ~node ~from:src);
          on_crash = (fun _ ~node:_ -> ());
          on_recover = (fun e ~node ~amnesia:_ -> Eager.on_recover r e ~node);
        }
      in
      let engine = Engine.create ~seed:c.d_seed ~nodes:c.d_nodes ~network () in
      Engine.set_handlers engine handlers;
      Eager.start r engine;
      ( engine,
        fun ~node ->
          ( List.init c.d_nodes (fun j -> Eager.suspicion r engine ~node j),
            Eager.view r engine ~node ) ))

let lazy_matches_eager =
  QCheck.Test.make
    ~name:"lazy arrivals match eager heartbeat delivery" ~count:150 diff_arb
    (fun c ->
      let a = lazy_world c and b = eager_world c in
      if a = b then true
      else
        let t, i, _, _ =
          List.find (fun (x, y) -> x <> y) (List.combine a b) |> fst
        in
        QCheck.Test.fail_reportf "first difference: observer %d at t=%g" i t)

(* --- Lazy arrivals: the edge cases, one by one ----------------------- *)

(* Zero jitter and unit latency: node 0's beat rounds start at 0.25, so
   its first beat reaches everyone at exactly 1.25.  The fixed-mode
   suspicion is [elapsed / 4]. *)
let exact_world ?(nodes = 3) ?(latency = 1.0) () =
  let network = Sim.Network.create ~base_latency:latency ~jitter:0.0 () in
  let fd, engine = make_world ~network ~timeout:4.0 ~nodes () in
  ignore (Engine.timer engine ~node:0 ~delay:100.0 ignore);
  (fd, engine)

let check_float = Alcotest.(check (float 1e-12))

let test_inflight_across_crash () =
  let fd, engine = exact_world () in
  Engine.crash_at engine ~time:1.0 ~node:1;
  Engine.crash_at engine ~time:1.5 ~node:2;
  Engine.run ~until:2.0 engine;
  check_float "crashed before the arrival: not heard" (2.0 /. 4.0)
    (Fd.suspicion fd ~node:1 0);
  check_float "crashed after the arrival: heard" (0.75 /. 4.0)
    (Fd.suspicion fd ~node:2 0)

let test_inflight_across_recovery () =
  let fd, engine = exact_world () in
  Engine.crash_at engine ~time:1.0 ~node:1;
  Engine.recover_at engine ~time:1.1 ~node:1;
  Engine.crash_at engine ~time:1.0 ~node:2;
  Engine.recover_at engine ~time:1.5 ~node:2;
  Engine.run ~until:2.0 engine;
  check_float "arrives after the recovery: heard" (0.75 /. 4.0)
    (Fd.suspicion fd ~node:1 0);
  check_float "arrives while down: the recovery reset stands" (0.5 /. 4.0)
    (Fd.suspicion fd ~node:2 0)

let test_until_leaves_later_arrivals () =
  (* Latency 0.625: the first beat arrives at 0.875, when no event is
     due, so only the horizon can make it count. *)
  let fd, engine = exact_world ~latency:0.625 () in
  Engine.run ~until:0.8125 engine;
  check_float "not yet arrived" (0.8125 /. 4.0) (Fd.suspicion fd ~node:1 0);
  Engine.run ~until:0.875 engine;
  check_float "arrived at the horizon" 0.0 (Fd.suspicion fd ~node:1 0)

let test_arrival_ties_in_push_order () =
  let fd, engine = exact_world () in
  let seen = ref [] in
  let probe () = seen := Fd.suspicion fd ~node:1 0 :: !seen in
  (* Pushed before node 0's beat round: runs before the arrival. *)
  Engine.schedule engine ~time:1.25 probe;
  (* Pushed after it: runs after the arrival. *)
  Engine.schedule engine ~time:0.5 (fun () ->
      Engine.schedule engine ~time:1.25 probe);
  Engine.run ~until:2.0 engine;
  Alcotest.(check (list (float 1e-12)))
    "earlier push first" [ 1.25 /. 4.0; 0.0 ] (List.rev !seen)

let test_dead_observer_bounded () =
  let nodes = 5 in
  let _fd, engine = make_world ~nodes () in
  Engine.crash_at engine ~time:2.0 ~node:1;
  ignore (Engine.timer engine ~node:0 ~delay:300.0 ignore);
  Engine.run engine;
  let pending = Engine.beats_pending engine ~node:1 in
  check
    (Printf.sprintf "%d beats held for a node dead for 298 periods" pending)
    true
    (pending <= 4 * (nodes - 1))

(* --- Safety smoke over the fd stress scenarios ----------------------- *)

let smoke_horizon = 100.0

let fd_scenarios () =
  Chaos.scenario_of_label ~n:15 ~horizon:smoke_horizon "churn-iid"
  :: Chaos.fd_family ~n:15 ~horizon:smoke_horizon

let test_fd_scenarios_safe () =
  (* Zero stale reads across the detector stress family, with the
     detector actually steering quorum selection — both modes, and
     with hedging + degraded reads on. *)
  let system = Core.Registry.build_exn "htriang(15)" in
  List.iter
    (fun scenario ->
      List.iter
        (fun (accrual, hedge) ->
          let r =
            Chaos.run_fd ~seed:47 ?accrual ~hedge ~degraded_reads:hedge
              ~read_system:system ~write_system:system ~name:"htriang(15)"
              scenario
          in
          check_int
            (Printf.sprintf "stale reads %s/%s" r.Chaos.label r.Chaos.detector)
            0 r.Chaos.stale_reads;
          check
            (Printf.sprintf "progress %s/%s" r.Chaos.label r.Chaos.detector)
            true
            (r.Chaos.ok > 0))
        [ (None, false); (Some 2.0, true) ])
    (fd_scenarios ())

let test_fd_run_deterministic () =
  let system = Core.Registry.build_exn "htriang(15)" in
  let scenario =
    Chaos.scenario_of_label ~n:15 ~horizon:smoke_horizon "suspect-burst"
  in
  let run () =
    Chaos.run_fd ~seed:47 ~accrual:2.0 ~hedge:true ~read_system:system
      ~write_system:system ~name:"htriang(15)" scenario
  in
  check "same seed, same report" true (run () = run ())

let test_churn_fd_mode_safe () =
  let scenario =
    {
      Chaos.label = "churn";
      horizon = smoke_horizon;
      plan =
        {
          Chaos.calm with
          loss = 0.02;
          churn_sustained = Some (0.1, 50.0);
        };
    }
  in
  let r, _ =
    Chaos.run_churn_h ~seed:47 ~rows:5 ~period:8.0 ~mode:Chaos.Fd ~universe:30
      scenario
  in
  check_int "no stale reads under fd-driven membership" 0 r.Chaos.stale_reads;
  check "progress under fd-driven membership" true (r.Chaos.ok > 0)

let () =
  Alcotest.run "fd"
    [
      ( "contract",
        [
          QCheck_alcotest.to_alcotest fd_contract;
          QCheck_alcotest.to_alcotest suspicion_normalized;
        ] );
      ( "accrual",
        [
          Alcotest.test_case "create validates" `Quick
            test_accrual_create_validates;
          Alcotest.test_case "detects and heals" `Quick
            test_accrual_detects_and_heals;
          Alcotest.test_case "stats measure detection" `Quick
            test_accrual_stats_measure_detection;
          Alcotest.test_case "mode accessors" `Quick test_mode_accessors;
        ] );
      ( "arrivals",
        [
          QCheck_alcotest.to_alcotest lazy_matches_eager;
          Alcotest.test_case "in flight across a crash" `Quick
            test_inflight_across_crash;
          Alcotest.test_case "in flight across a recovery" `Quick
            test_inflight_across_recovery;
          Alcotest.test_case "run until leaves later arrivals" `Quick
            test_until_leaves_later_arrivals;
          Alcotest.test_case "arrivals tie in push order" `Quick
            test_arrival_ties_in_push_order;
          Alcotest.test_case "dead observer stays bounded" `Quick
            test_dead_observer_bounded;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "fd stress family is safe" `Quick
            test_fd_scenarios_safe;
          Alcotest.test_case "runs are deterministic" `Quick
            test_fd_run_deterministic;
          Alcotest.test_case "fd-driven membership is safe" `Quick
            test_churn_fd_mode_safe;
        ] );
    ]
