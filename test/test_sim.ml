(* Tests for the discrete-event simulation substrate. *)

module Engine = Sim.Engine
module Network = Sim.Network
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Network -------------------------------------------------------- *)

(* One message's latency through [Network.draw], [None] when it is lost
   or blocked. *)
let delay net rng ~src ~dst =
  let latency = Float.Array.make 1 nan in
  if Network.draw net rng ~src ~dst latency then
    Some (Float.Array.get latency 0)
  else None

let test_network_latency_positive () =
  let net = Network.create ~base_latency:2.0 ~jitter:0.5 () in
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    match delay net rng ~src:0 ~dst:1 with
    | Some d -> check "latency >= base" true (d >= 2.0)
    | None -> Alcotest.fail "lossless network dropped"
  done

let test_network_loss () =
  let net = Network.create ~loss:0.5 () in
  let rng = Rng.create 2 in
  let dropped = ref 0 in
  for _ = 1 to 2000 do
    if delay net rng ~src:0 ~dst:1 = None then incr dropped
  done;
  let rate = float_of_int !dropped /. 2000.0 in
  check "loss near 0.5" true (abs_float (rate -. 0.5) < 0.05)

let test_network_partition () =
  let net = Network.create () in
  let cut = Network.partition net ~group_a:[ 0; 1 ] in
  let rng = Rng.create 3 in
  check "cross-cut blocked" true (delay net rng ~src:0 ~dst:2 = None);
  check "same side ok" true (delay net rng ~src:0 ~dst:1 <> None);
  check "other side ok" true (delay net rng ~src:2 ~dst:3 <> None);
  Network.heal net cut;
  check "healed" true (delay net rng ~src:0 ~dst:2 <> None)

let test_network_overlapping_cuts () =
  (* Two overlapping cuts heal independently; a link crosses only when
     every cut containing it is gone. *)
  let net = Network.create () in
  let rng = Rng.create 4 in
  let c1 = Network.partition net ~group_a:[ 0 ] in
  let c2 = Network.partition net ~group_a:[ 0; 1 ] in
  check "blocked by both" true (delay net rng ~src:0 ~dst:2 = None);
  Network.heal net c1;
  check "still one cut" true (Network.partitioned net);
  check "0-2 still blocked by c2" true
    (delay net rng ~src:0 ~dst:2 = None);
  check "0-1 freed by healing c1" true
    (delay net rng ~src:0 ~dst:1 <> None);
  Network.heal net c1;
  (* double-heal is a no-op *)
  check "0-2 blocked after double heal" true
    (delay net rng ~src:0 ~dst:2 = None);
  Network.heal net c2;
  check "all healed" false (Network.partitioned net);
  check "0-2 open" true (delay net rng ~src:0 ~dst:2 <> None)

let test_network_heal_all () =
  let net = Network.create () in
  let rng = Rng.create 5 in
  let _ = Network.partition net ~group_a:[ 0 ] in
  let _ = Network.partition net ~group_a:[ 1 ] in
  Network.heal_all net;
  check "heal_all removes every cut" false (Network.partitioned net);
  check "traffic flows" true (delay net rng ~src:0 ~dst:1 <> None)

let test_network_link_loss () =
  let net = Network.create () in
  let rng = Rng.create 6 in
  Network.set_link_loss net ~src:0 ~dst:1 1.0;
  check "lossy direction drops" true (delay net rng ~src:0 ~dst:1 = None);
  check "reverse direction flows" true
    (delay net rng ~src:1 ~dst:0 <> None);
  Network.set_link_loss net ~src:0 ~dst:1 0.0;
  check "cleared" true (delay net rng ~src:0 ~dst:1 <> None)

let test_network_slowdown () =
  (* A gray node inflates latency on every adjacent link, both ways. *)
  let net = Network.create ~jitter:0.0 () in
  let rng = Rng.create 7 in
  let base =
    match delay net rng ~src:1 ~dst:2 with
    | Some d -> d
    | None -> Alcotest.fail "unexpected drop"
  in
  Network.set_slowdown net ~node:1 10.0;
  (match delay net rng ~src:1 ~dst:2 with
  | Some d -> check "outbound slowed" true (d >= base +. 10.0)
  | None -> Alcotest.fail "unexpected drop");
  (match delay net rng ~src:0 ~dst:1 with
  | Some d -> check "inbound slowed" true (d >= base +. 10.0)
  | None -> Alcotest.fail "unexpected drop");
  Network.set_slowdown net ~node:1 0.0;
  match delay net rng ~src:1 ~dst:2 with
  | Some d -> check "slowdown cleared" true (d < base +. 10.0)
  | None -> Alcotest.fail "unexpected drop"

(* [Network.delay] as it was before [Network.draw] replaced it,
   verbatim but for reading the network through its accessors and the
   cuts from the test's own list of [group_a]s. *)
let reference_delay ~cuts ~loss ~base ~jitter ~latency_of net rng ~src ~dst =
  let blocked =
    List.exists
      (fun group_a -> List.mem src group_a <> List.mem dst group_a)
      cuts
  in
  if blocked then None
  else begin
    let keep =
      (1.0 -. loss) *. (1.0 -. Network.extra_loss net)
      *. (1.0 -. Network.link_loss net ~src ~dst)
    in
    if keep < 1.0 && Rng.bernoulli rng (1.0 -. keep) then None
    else begin
      let jitter =
        if jitter = 0.0 then 0.0 else Rng.exponential rng ~mean:jitter
      in
      Some
        (base +. latency_of src dst +. jitter
        +. Network.slowdown net ~node:src
        +. Network.slowdown net ~node:dst)
    end
  end

type net_case = {
  seed : int;
  base : float;
  jitter : float;
  loss : float;
  extra : float;
  cuts : int list list;
  links : (int * int * float) list;
  slow : (int * float) list;
  topo : bool;  (** a per-pair [latency_of], else the default *)
  draws : (int * int) list;
}

let print_net_case c =
  Printf.sprintf
    "seed %d base %h jitter %h loss %h extra %h topo %b cuts [%s] links \
     [%s] slow [%s] draws [%s]"
    c.seed c.base c.jitter c.loss c.extra c.topo
    (String.concat "; "
       (List.map (fun g -> String.concat "," (List.map string_of_int g)) c.cuts))
    (String.concat "; "
       (List.map (fun (s, d, p) -> Printf.sprintf "%d>%d %h" s d p) c.links))
    (String.concat "; "
       (List.map (fun (n, x) -> Printf.sprintf "%d %h" n x) c.slow))
    (String.concat "; "
       (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) c.draws))

(* The same results, bit for bit, and the RNG left in the same place,
   over random cuts, loss sources, slowdowns, jitter 0 and > 0, and
   both kinds of [latency_of]. *)
let draw_matches_delay =
  let gen =
    let open QCheck.Gen in
    let node = int_bound 4 in
    let maybe g = oneof [ return 0.0; g ] in
    let* seed = int and* base = float_range 0.0 3.0
    and* jitter = maybe (float_range 0.01 1.0)
    and* loss = maybe (float_range 0.0 0.9)
    and* extra = maybe (float_range 0.0 0.9)
    and* cuts = list_size (int_range 0 2) (list_size (int_range 0 3) node)
    and* links =
      list_size (int_range 0 4)
        (triple node node (oneof [ float_range 0.0 1.0; return 1.0 ]))
    and* slow = list_size (int_range 0 3) (pair node (float_range 0.0 5.0))
    and* topo = bool
    and* draws = list_size (int_range 1 40) (pair node node) in
    return { seed; base; jitter; loss; extra; cuts; links; slow; topo; draws }
  in
  QCheck.Test.make ~name:"draw matches the old delay" ~count:500
    (QCheck.make ~print:print_net_case gen) (fun c ->
      let latency_of src dst = float_of_int ((5 * src) + dst) *. 0.37 in
      let net =
        if c.topo then
          Network.create ~base_latency:c.base ~jitter:c.jitter ~loss:c.loss
            ~latency_of ()
        else
          Network.create ~base_latency:c.base ~jitter:c.jitter ~loss:c.loss ()
      in
      let latency_of = if c.topo then latency_of else fun _ _ -> 0.0 in
      Network.set_extra_loss net c.extra;
      List.iter (fun group_a -> ignore (Network.partition net ~group_a)) c.cuts;
      List.iter (fun (src, dst, p) -> Network.set_link_loss net ~src ~dst p) c.links;
      List.iter (fun (node, x) -> Network.set_slowdown net ~node x) c.slow;
      let r = Rng.create c.seed and m = Rng.create c.seed in
      let bits = Option.map Int64.bits_of_float in
      List.for_all
        (fun (src, dst) ->
          bits (delay net r ~src ~dst)
          = bits
              (reference_delay ~cuts:c.cuts ~loss:c.loss ~base:c.base
                 ~jitter:c.jitter ~latency_of net m ~src ~dst))
        c.draws
      && Rng.bits64 r = Rng.bits64 m)

(* --- Engine --------------------------------------------------------- *)

type probe_msg = Ping | Pong

let engine_with ?network ?obs ~seed ~nodes handlers =
  let e = Engine.create ~seed ~nodes ?network ?obs () in
  Engine.set_handlers e handlers;
  e

let probe_handlers log : probe_msg Engine.handlers =
  {
    on_message =
      (fun engine ~node ~src msg ->
        log := (Engine.now engine, `Msg (node, src)) :: !log;
        match msg with
        | Ping -> Engine.send engine ~src:node ~dst:src Pong
        | Pong -> ());
    on_timer =
      (fun engine ~node ~tag ->
        log := (Engine.now engine, `Timer (node, tag)) :: !log);
    on_crash = (fun engine ~node -> log := (Engine.now engine, `Crash node) :: !log);
    on_recover =
      (fun engine ~node ~amnesia:_ ->
        log := (Engine.now engine, `Recover node) :: !log);
  }

let test_engine_ping_pong () =
  let log = ref [] in
  let e = engine_with ~seed:5 ~nodes:3 (probe_handlers log) in
  Engine.send e ~src:0 ~dst:1 Ping;
  Engine.run e;
  check_int "two deliveries" 2 (Engine.messages_delivered e);
  check_int "two sends" 2 (Engine.messages_sent e);
  check "time advanced" true (Engine.now e > 0.0)

let test_engine_determinism () =
  let run () =
    let log = ref [] in
    let e = engine_with ~seed:9 ~nodes:4 (probe_handlers log) in
    Engine.send e ~src:0 ~dst:1 Ping;
    Engine.send e ~src:2 ~dst:3 Ping;
    Engine.set_timer e ~node:0 ~delay:0.5 ~tag:7;
    Engine.run e;
    (!log, Engine.now e)
  in
  let a = run () and b = run () in
  check "identical traces" true (a = b)

let test_engine_crash_drops_messages () =
  let log = ref [] in
  let e = engine_with ~seed:6 ~nodes:2 (probe_handlers log) in
  Engine.crash_at e ~time:0.0 ~node:1;
  Engine.schedule e ~time:1.0 (fun () -> Engine.send e ~src:0 ~dst:1 Ping);
  Engine.run e;
  let deliveries =
    List.filter (fun (_, ev) -> match ev with `Msg _ -> true | _ -> false) !log
  in
  check_int "no deliveries to dead node" 0 (List.length deliveries)

let test_engine_recover () =
  let log = ref [] in
  let e = engine_with ~seed:6 ~nodes:2 (probe_handlers log) in
  Engine.crash_at e ~time:0.0 ~node:1;
  Engine.recover_at e ~time:5.0 ~node:1;
  Engine.schedule e ~time:6.0 (fun () -> Engine.send e ~src:0 ~dst:1 Ping);
  Engine.run e;
  let deliveries =
    List.filter (fun (_, ev) -> match ev with `Msg _ -> true | _ -> false) !log
  in
  (* ping delivered to 1, pong back to 0 *)
  check_int "delivered after recovery" 2 (List.length deliveries)

let test_engine_crash_count () =
  (* The count moves with [on_crash] and only then: a crash of a node
     that is already down, and recoveries, leave it alone. *)
  let seen = ref [] in
  let handlers : probe_msg Engine.handlers =
    {
      on_message = (fun _ ~node:_ ~src:_ _ -> ());
      on_timer = (fun _ ~node:_ ~tag:_ -> ());
      on_crash =
        (fun e ~node -> seen := (node, Engine.crashes e ~node) :: !seen);
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = engine_with ~seed:6 ~nodes:3 handlers in
  check_int "none at start" 0 (Engine.crashes e ~node:1);
  Engine.crash_at e ~time:1.0 ~node:1;
  Engine.crash_at e ~time:2.0 ~node:1;
  Engine.recover_at e ~time:3.0 ~node:1;
  Engine.recover_at ~amnesia:true e ~time:3.5 ~node:1;
  Engine.crash_at e ~time:4.0 ~node:1;
  Engine.crash_at e ~time:4.0 ~node:2;
  Engine.run e;
  check_int "two real crashes of node 1" 2 (Engine.crashes e ~node:1);
  check_int "one of node 2" 1 (Engine.crashes e ~node:2);
  check_int "node 0 never crashed" 0 (Engine.crashes e ~node:0);
  check "on_crash sees the count already moved" true
    (List.rev !seen = [ (1, 1); (1, 2); (2, 1) ])

let test_engine_until () =
  let log = ref [] in
  let e = engine_with ~seed:1 ~nodes:1 (probe_handlers log) in
  Engine.set_timer e ~node:0 ~delay:1.0 ~tag:1;
  Engine.set_timer e ~node:0 ~delay:10.0 ~tag:2;
  Engine.run ~until:5.0 e;
  check_int "only first timer" 1 (List.length !log);
  Alcotest.(check (float 1e-9)) "clock clamped" 5.0 (Engine.now e)

let test_engine_live_set () =
  let log = ref [] in
  let e = engine_with ~seed:1 ~nodes:4 (probe_handlers log) in
  Engine.crash_at e ~time:0.0 ~node:2;
  Engine.run e;
  let live = Engine.live_set e in
  check "2 dead" false (Quorum.Bitset.mem live 2);
  check_int "3 live" 3 (Quorum.Bitset.cardinal live)

let test_engine_background_drains () =
  (* A perpetual background timer chain must not keep [run] alive. *)
  let fired = ref 0 in
  let handlers : probe_msg Engine.handlers =
    {
      on_message = (fun _ ~node:_ ~src:_ _ -> ());
      on_timer =
        (fun e ~node ~tag ->
          incr fired;
          Engine.set_timer ~background:true e ~node ~delay:1.0 ~tag);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = engine_with ~seed:2 ~nodes:1 handlers in
  Engine.set_timer ~background:true e ~node:0 ~delay:1.0 ~tag:0;
  Engine.set_timer e ~node:0 ~delay:3.5 ~tag:1;
  (* foreground *)
  let outcome = Engine.run_status e in
  check "drained" true (outcome = Engine.Drained);
  (* Background beats at 1,2,3 ran while foreground work remained, plus
     the foreground timer at 3.5. *)
  check_int "heartbeats ran while foreground lived" 4 !fired;
  check_int "background not in messages_sent" 0 (Engine.messages_sent e)

let test_engine_budget_reported () =
  (* A self-perpetuating foreground timer never drains: the event
     budget must trip, be reported, and be counted. *)
  let handlers : probe_msg Engine.handlers =
    {
      on_message = (fun _ ~node:_ ~src:_ _ -> ());
      on_timer =
        (fun e ~node ~tag -> Engine.set_timer e ~node ~delay:1.0 ~tag);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = engine_with ~seed:2 ~nodes:1 handlers in
  Engine.set_timer e ~node:0 ~delay:1.0 ~tag:0;
  let outcome = Engine.run_status ~max_events:100 e in
  check "budget exhausted" true (outcome = Engine.Budget_exhausted);
  check_int "exhaustion counted" 1 (Engine.budget_exhaustions e);
  check "run raises on exhaustion" true
    (try
       Engine.run ~max_events:100 e;
       false
     with Failure _ -> true);
  check_int "counted again" 2 (Engine.budget_exhaustions e)

(* --- Event queue ------------------------------------------------------ *)

(* Timers whose handler logs its tag; [on_fire] runs after the log. *)
let timer_log ?(on_fire = fun _ ~node:_ ~tag:_ -> ()) () =
  let log = ref [] in
  let handlers : probe_msg Engine.handlers =
    {
      on_message = (fun _ ~node:_ ~src:_ _ -> ());
      on_timer =
        (fun e ~node ~tag ->
          log := tag :: !log;
          on_fire e ~node ~tag);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  (log, handlers)

let test_heap_order () =
  let log, handlers = timer_log () in
  let e = engine_with ~seed:1 ~nodes:1 handlers in
  List.iter
    (fun d -> Engine.set_timer e ~node:0 ~delay:d ~tag:(int_of_float d))
    [ 3.0; 1.0; 2.0 ];
  check "drained" true (Engine.run_status e = Engine.Drained);
  check "earliest first" true (List.rev !log = [ 1; 2; 3 ]);
  check_int "nothing left" 3 (Engine.events_dispatched e)

let test_heap_fifo_ties () =
  let log, handlers = timer_log () in
  let e = engine_with ~seed:1 ~nodes:1 handlers in
  List.iter
    (fun tag -> Engine.set_timer e ~node:0 ~delay:1.0 ~tag)
    [ 10; 20; 30 ];
  Engine.run e;
  check "ties in push order" true (List.rev !log = [ 10; 20; 30 ])

let heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_inclusive 100.0))
    (fun delays ->
      let times = ref [] in
      let _, handlers =
        timer_log
          ~on_fire:(fun e ~node:_ ~tag:_ -> times := Engine.now e :: !times)
          ()
      in
      let e = engine_with ~seed:1 ~nodes:1 handlers in
      List.iter (fun delay -> Engine.set_timer e ~node:0 ~delay ~tag:0) delays;
      Engine.run e;
      let fired = List.rev !times in
      List.length fired = List.length delays
      && fired = List.sort compare fired)

(* Random interleavings of every push kind, including pushes made from
   inside handlers and equal-time ties: dispatch must follow
   [(time, push order)].  Each event carries its push index as its
   identity, so the reference is a plain sort of every push made.  The
   network has a fixed latency of 1, so a send's delivery time is known
   at push time; each crash targets a fresh node so its dispatch is
   observable and no other event is lost to it. *)
type push_op =
  | Send of int * int
  | Timer of int * int
  | Sched of int
  | Crash of int

let gen_push_op =
  QCheck.Gen.(
    let node = int_bound 3 and delay = int_bound 3 in
    oneof
      [
        map2 (fun s d -> Send (s, d)) node node;
        map2 (fun n d -> Timer (n, d)) node delay;
        map (fun d -> Sched d) delay;
        map (fun d -> Crash d) delay;
      ])

let show_push_op = function
  | Send (s, d) -> Printf.sprintf "send %d->%d" s d
  | Timer (n, d) -> Printf.sprintf "timer %d+%d" n d
  | Sched d -> Printf.sprintf "sched +%d" d
  | Crash d -> Printf.sprintf "crash +%d" d

let dispatch_follows_push_order =
  let plan =
    QCheck.make
      ~print:QCheck.Print.(list (pair show_push_op (list show_push_op)))
      (* Up to 120 events: enough to grow the arena past its first size. *)
      QCheck.Gen.(
        list_size (int_range 1 40)
          (pair gen_push_op (list_size (int_bound 2) gen_push_op)))
  in
  QCheck.Test.make ~name:"dispatch follows (time, push order)" ~count:300 plan
    (fun plan ->
      let pushed = ref [] and dispatched = ref [] in
      let next_id = ref 0 and next_crash = ref 4 in
      let children = Hashtbl.create 16 and crash_ids = Hashtbl.create 16 in
      let rec push e (op, kids) =
        let id = !next_id in
        incr next_id;
        Hashtbl.replace children id kids;
        let at d = Engine.now e +. float_of_int d in
        let time =
          match op with
          | Send (s, d) ->
              Engine.send e ~src:s ~dst:d id;
              at (if s = d then 0 else 1)
          | Timer (n, d) ->
              Engine.set_timer e ~node:n ~delay:(float_of_int d) ~tag:id;
              at d
          | Sched d ->
              Engine.schedule e ~time:(at d) (fun () -> fire e id);
              at d
          | Crash d ->
              let node = !next_crash in
              incr next_crash;
              Hashtbl.replace crash_ids node id;
              Engine.crash_at e ~time:(at d) ~node;
              at d
        in
        pushed := (time, id) :: !pushed
      and fire e id =
        dispatched := id :: !dispatched;
        List.iter (fun op -> push e (op, [])) (Hashtbl.find children id)
      in
      let handlers : int Engine.handlers =
        {
          on_message = (fun e ~node:_ ~src:_ id -> fire e id);
          on_timer = (fun e ~node:_ ~tag -> fire e tag);
          on_crash = (fun e ~node -> fire e (Hashtbl.find crash_ids node));
          on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
        }
      in
      let network = Network.create ~base_latency:1.0 ~jitter:0.0 () in
      let e = engine_with ~seed:3 ~nodes:128 ~network handlers in
      List.iter (push e) plan;
      Engine.run e;
      List.rev !dispatched = List.map snd (List.sort compare !pushed))

(* Cancelling a timer changes nothing a run observes.  Twin engines run
   the same random plan: in one, [Doomed] timers are cancelled by a
   thunk (foreground or background) at a random instant, possibly after
   they fired; in the other they stay queued and fire as no-ops.  The
   other events run in the same order at the same times, each phase of
   the run ([until] horizons, then a drain) ends with the same outcome
   at the same instant, and the same heartbeats have arrived. *)
type cancel_op =
  | Arm of int * bool  (** delay, background *)
  | Doomed of int * int * bool  (** delay, cancel after, background cancel *)
  | Beat of int * int  (** src, delay: a background beat round *)

let gen_cancel_op =
  QCheck.Gen.(
    let delay = int_bound 6 in
    frequency
      [
        (3, map2 (fun d bg -> Arm (d, bg)) delay bool);
        (3, map3 (fun d c bg -> Doomed (d, c, bg)) delay delay bool);
        (2, map2 (fun src d -> Beat (src, d)) (int_bound 3) delay);
      ])

let show_cancel_op = function
  | Arm (d, bg) -> Printf.sprintf "arm +%d%s" d (if bg then " bg" else "")
  | Doomed (d, c, bg) ->
      Printf.sprintf "doomed +%d cancel +%d%s" d c (if bg then " bg" else "")
  | Beat (src, d) -> Printf.sprintf "beat %d +%d" src d

let cancel_is_a_noop_timer =
  let plan =
    QCheck.make
      ~print:
        QCheck.Print.(
          pair (list (pair show_cancel_op (list show_cancel_op))) (list int))
      QCheck.Gen.(
        pair
          (list_size (int_range 1 30)
             (pair gen_cancel_op (list_size (int_bound 2) gen_cancel_op)))
          (list_size (int_bound 2) (int_bound 20)))
  in
  QCheck.Test.make ~name:"a cancelled timer is a timer that fires as a no-op"
    ~count:300 plan (fun (plan, untils) ->
      let world ~cancel =
        let log = ref [] and next_id = ref 0 in
        let children = Hashtbl.create 16 and cancelled = Hashtbl.create 16 in
        let rec push e (op, kids) =
          let id = !next_id in
          incr next_id;
          Hashtbl.replace children id kids;
          let at d = Engine.now e +. float_of_int d in
          match op with
          | Arm (d, background) ->
              Engine.set_timer ~background e ~node:0 ~delay:(float_of_int d)
                ~tag:id
          | Doomed (d, c, background) ->
              let h = Engine.timer e ~node:0 ~delay:(float_of_int d) ~tag:id in
              Engine.schedule ~background e ~time:(at c) (fun () ->
                  log := (-id - 1, Engine.now e) :: !log;
                  if cancel then Engine.cancel e h
                  else Hashtbl.replace cancelled id ())
          | Beat (src, d) ->
              Engine.schedule ~background:true e ~time:(at d) (fun () ->
                  Engine.beat_round e ~src;
                  fire e id)
        and fire e id =
          log := (id, Engine.now e) :: !log;
          List.iter (fun op -> push e (op, [])) (Hashtbl.find children id)
        in
        let handlers : unit Engine.handlers =
          {
            on_message = (fun _ ~node:_ ~src:_ () -> ());
            on_timer =
              (fun e ~node:_ ~tag ->
                if not (Hashtbl.mem cancelled tag) then fire e tag);
            on_crash = (fun _ ~node:_ -> ());
            on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
          }
        in
        let e = engine_with ~seed:7 ~nodes:4 handlers in
        List.iter (push e) plan;
        let phase until =
          let outcome =
            Engine.run_status ?until:(Option.map float_of_int until) e
          in
          let beats node =
            let b = Engine.take_beats e ~node in
            List.init b.Engine.count (fun k ->
                (Float.Array.get b.Engine.times k, b.Engine.srcs.(k)))
          in
          (outcome, Engine.now e, List.init 4 beats)
        in
        let phases =
          List.map phase
            (List.map Option.some (List.sort compare untils) @ [ None ])
        in
        (List.rev !log, phases)
      in
      world ~cancel:true = world ~cancel:false)

let test_raise_leaves_queue_consistent () =
  (* A raising handler escapes [run]; the next [run] picks up where it
     left off: the raiser's slot is free, events it pushed before
     raising are queued, and the foreground count still lets a run with
     a perpetual background heartbeat drain. *)
  let delivered = ref [] in
  let handlers : int Engine.handlers =
    {
      on_message =
        (fun e ~node ~src:_ v ->
          delivered := v :: !delivered;
          if v < 0 then begin
            Engine.send e ~src:node ~dst:0 (-v);
            raise Exit
          end);
      on_timer =
        (fun e ~node ~tag ->
          Engine.set_timer ~background:true e ~node ~delay:1.0 ~tag);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = engine_with ~seed:4 ~nodes:2 handlers in
  Engine.set_timer ~background:true e ~node:1 ~delay:0.5 ~tag:0;
  for round = 1 to 100 do
    Engine.send e ~src:0 ~dst:1 (-round);
    check "handler raise escapes run" true
      (try
         Engine.run e;
         false
       with Exit -> true);
    check "next run drains" true
      (Engine.run_status ~max_events:1000 e = Engine.Drained);
    check "payloads intact" true (List.hd !delivered = round)
  done;
  check_int "every message delivered once" 200 (List.length !delivered)

let test_span_ctx_rides_messages () =
  let seen = ref [] in
  let handlers : probe_msg Engine.handlers =
    {
      on_message =
        (fun e ~node ~src msg ->
          seen := (node, Engine.span_ctx e) :: !seen;
          match msg with
          | Ping -> Engine.send e ~src:node ~dst:src Pong
          | Pong -> ());
      on_timer =
        (fun e ~node ~tag:_ -> seen := (node, Engine.span_ctx e) :: !seen);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = engine_with ~seed:5 ~nodes:4 handlers in
  Engine.set_span_ctx e 7;
  Engine.send e ~src:0 ~dst:1 Ping;
  Engine.send ~background:true e ~src:0 ~dst:2 Pong;
  Engine.set_timer e ~node:3 ~delay:0.1 ~tag:0;
  Engine.set_span_ctx e (-1);
  Engine.run e;
  let ctx_at node = List.assoc node !seen in
  check_int "receiver runs under the sender's context" 7 (ctx_at 1);
  check_int "the reply inherits it" 7 (ctx_at 0);
  check_int "background traffic runs under none" (-1) (ctx_at 2);
  check_int "timers fire under the arming context" 7 (ctx_at 3);
  check_int "ambient context restored" (-1) (Engine.span_ctx e)

(* [Engine.beat_round] is one [send ~background:true] per peer, in
   ascending order, without the queue.  Over a network lossy for the
   beats, jittery or jitter-free (so a round's arrivals tie), with a
   receiver that dies mid-run, two engines on one seed lose the same
   beats, move the same counters and leave the RNG in the same place
   (the foreground pings after each round take the same delays), and
   the arrivals [take_beats] hands each node are the deliveries the
   queued path made to it, in order.  The queued path counts deliveries
   to the dead receiver as [dead_dst] drops; beats are not counted
   there. *)
let test_beat_draws_like_background_send () =
  let nodes = 4 in
  let world ~jitter ~queued =
    let beats = ref [] and pings = ref [] in
    let handlers : probe_msg Engine.handlers =
      {
        on_message =
          (fun e ~node ~src msg ->
            match msg with
            | Pong -> beats := (node, Engine.now e, src) :: !beats
            | Ping -> pings := Engine.now e :: !pings);
        on_timer = (fun _ ~node:_ ~tag:_ -> ());
        on_crash = (fun _ ~node:_ -> ());
        on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
      }
    in
    let network = Network.create ~jitter () in
    let e = engine_with ~seed:17 ~nodes ~network handlers in
    Engine.crash_at e ~time:2.5 ~node:3;
    for round = 0 to 5 do
      Engine.schedule e ~time:(float_of_int round) (fun () ->
          (* Lossy for the beats only, so every ping gets through. *)
          Network.set_extra_loss network 0.3;
          for src = 0 to nodes - 1 do
            if queued then
              for dst = 0 to nodes - 1 do
                if src <> dst then Engine.send ~background:true e ~src ~dst Pong
              done
            else Engine.beat_round e ~src
          done;
          Network.set_extra_loss network 0.0;
          Engine.send e ~src:0 ~dst:1 Ping)
    done;
    Engine.run e;
    let arrived node =
      if queued then
        List.rev !beats
        |> List.filter_map (fun (n, time, src) ->
               if n = node then Some (time, src) else None)
      else
        let b = Engine.take_beats e ~node in
        List.init b.Engine.count (fun k ->
            (Float.Array.get b.Engine.times k, b.Engine.srcs.(k)))
    in
    let dropped reason =
      Obs.Metrics.counter_value
        ~labels:[ ("reason", reason) ]
        (Obs.Metrics.counter (Obs.metrics (Engine.obs e)) "sim.messages_dropped")
    in
    ( List.init nodes arrived,
      List.rev !pings,
      ( Engine.messages_sent e,
        Engine.messages_background e,
        dropped "net",
        Engine.messages_dropped e - dropped "dead_dst" ) )
  in
  List.iter
    (fun jitter ->
      let q_arrivals, q_pings, q_counts = world ~jitter ~queued:true in
      let b_arrivals, b_pings, b_counts = world ~jitter ~queued:false in
      check "same counters" true (q_counts = b_counts);
      let _, background, dropped, _ = b_counts in
      let _, _, _, q_net = q_counts in
      check_int "dropped = net drops" dropped q_net;
      check_int "some beats lost" 1 (min 1 dropped);
      check "not all" true (dropped < background);
      check "same foreground delays" true (q_pings = b_pings);
      check_int "every ping delivered" 6 (List.length b_pings);
      check "same arrivals, in the same order" true (q_arrivals = b_arrivals);
      check "the dead receiver missed some" true
        (List.length (List.nth b_arrivals 3)
        < List.length (List.nth b_arrivals 2)))
    [ 0.2; 0.0 ]

(* An arrival holds the seq its delivery event would have had: of two
   events for the same instant, the one pushed before the round runs
   before the arrival, the one pushed after runs after it. *)
let test_beat_reserves_its_seq () =
  let network = Network.create ~base_latency:1.0 ~jitter:0.0 () in
  let _, handlers = timer_log () in
  let e = engine_with ~seed:1 ~nodes:2 ~network handlers in
  let seen = ref [] in
  let probe () = seen := (Engine.take_beats e ~node:1).Engine.count :: !seen in
  Engine.schedule e ~time:1.0 probe;
  Engine.beat_round e ~src:0;
  Engine.schedule e ~time:1.0 probe;
  Engine.run e;
  check "not yet, then arrived" true (List.rev !seen = [ 0; 1 ])

(* --- Failure injector ------------------------------------------------ *)

let test_iid_faults_fraction () =
  (* Measure the down-fraction of a node across a long horizon. *)
  let log = ref [] in
  let e = engine_with ~seed:3 ~nodes:5 (probe_handlers log) in
  Sim.Failure_injector.iid_faults e ~rng:(Rng.create 42) ~p:0.25
    ~mean_downtime:2.0 ~horizon:5000.0;
  (* Track downtime of node 0 through crash/recover events. *)
  Engine.run e;
  let events =
    List.rev
      (List.filter_map
         (fun (t, ev) ->
           match ev with
           | `Crash 0 -> Some (t, `Down)
           | `Recover 0 -> Some (t, `Up)
           | _ -> None)
         !log)
  in
  let rec downtime acc last_down = function
    | [] -> (match last_down with Some t -> acc +. (5000.0 -. t) | None -> acc)
    | (t, `Down) :: rest -> downtime acc (Some t) rest
    | (t, `Up) :: rest ->
        (match last_down with
        | Some d -> downtime (acc +. (t -. d)) None rest
        | None -> downtime acc None rest)
  in
  let frac = downtime 0.0 None events /. 5000.0 in
  check "down fraction near p" true (abs_float (frac -. 0.25) < 0.06)

let test_scripted () =
  let log = ref [] in
  let e = engine_with ~seed:3 ~nodes:2 (probe_handlers log) in
  Sim.Failure_injector.scripted e
    [ (1.0, Sim.Failure_injector.Crash 0); (2.0, Sim.Failure_injector.Recover 0) ];
  Engine.run e;
  check_int "two events" 2 (List.length !log)

let test_crash_random_subset () =
  let log = ref [] in
  let e = engine_with ~seed:3 ~nodes:100 (probe_handlers log) in
  Sim.Failure_injector.crash_random_subset e ~rng:(Rng.create 8) ~at:1.0
    ~p:0.3;
  Engine.run e;
  let crashed = 100 - Quorum.Bitset.cardinal (Engine.live_set e) in
  check "roughly 30 crashed" true (crashed > 15 && crashed < 45)

(* --- Rpc retransmit backoff ---------------------------------------- *)

let backoff_within_bounds =
  QCheck.Test.make ~count:200
    ~name:"decorrelated backoff stays in [timeout, min cap (3*prev)]"
    QCheck.(pair (int_range 0 10_000) (float_range 2.0 40.0))
    (fun (seed, prev) ->
      let rpc =
        Sim.Rpc.create (Engine.create ~seed ~nodes:1 ()) ~timeout:2.0 ()
      in
      let d = Sim.Rpc.next_backoff rpc (Rng.create seed) ~prev in
      d >= 2.0 && d <= Float.min 64.0 (3.0 *. prev))

let test_backoff_deterministic () =
  (* Same seed, same prev sequence -> identical delays: jittered runs
     stay exactly reproducible. *)
  let draw seed =
    let e = Engine.create ~seed ~nodes:1 () in
    let rpc = Sim.Rpc.create e ~timeout:2.0 () in
    let rng = Rng.create seed in
    let rec go prev k acc =
      if k = 0 then List.rev acc
      else
        let d = Sim.Rpc.next_backoff rpc rng ~prev in
        go d (k - 1) (d :: acc)
    in
    go 2.0 8 []
  in
  Alcotest.(check (list (float 1e-12))) "same seed" (draw 9) (draw 9);
  check "different seed differs" true (draw 9 <> draw 10)

(* --- Write-ahead replies ----------------------------------------------- *)

(* Node 1 acknowledges a write whose fsync completes at 1.5: [call] is
   when the helper runs (under a parent span unless [~root:false]),
   [faults] the crash and recovery events around it.  Returns when and
   under which span context the reply was sent (if it was), the parent
   span, and the fsync spans opened. *)
let write_ahead ?(root = true) ?(call = 1.0) faults =
  let obs = Obs.create () in
  let e = engine_with ~seed:8 ~nodes:2 ~obs (probe_handlers (ref [])) in
  let spans = Obs.spans obs in
  let sent = ref None and parent = ref (-1) in
  Engine.schedule e ~time:call (fun () ->
      if root then begin
        parent := Obs.Span.start spans ~time:call ~node:0 "test.write";
        Engine.set_span_ctx e !parent
      end;
      Sim.Durable.send_when_durable e ~node:1 ~durable_at:1.5
        ~span:"test.fsync" (fun () ->
          sent := Some (Engine.now e, Engine.span_ctx e)));
  List.iter
    (function
      | `Crash t -> Engine.crash_at e ~time:t ~node:1
      | `Recover t -> Engine.recover_at e ~time:t ~node:1)
    faults;
  Engine.run e;
  let fsyncs =
    List.filter (fun sp -> sp.Obs.Span.name = "test.fsync")
      (Obs.Span.to_list spans)
  in
  (!sent, !parent, fsyncs)

let test_write_ahead_sends_when_durable () =
  let sent, parent, fsyncs = write_ahead [] in
  check "sent at durable_at, under the caller's context" true
    (sent = Some (1.5, parent));
  match fsyncs with
  | [ sp ] ->
      check_int "child of the ambient context" parent sp.Obs.Span.parent;
      check "on node 1" true (sp.Obs.Span.node = 1);
      check "from the call to durable_at" true
        (sp.Obs.Span.start_time = 1.0 && sp.Obs.Span.end_time = 1.5);
      check "closed Ok" true (sp.Obs.Span.status = Obs.Span.Ok)
  | _ -> Alcotest.fail "one fsync span"

let test_write_ahead_crash_in_between () =
  (* Crashed and recovered inside the fsync window: the write may be
     lost, so no ack, although the node is live again at durable_at. *)
  let sent, _, fsyncs = write_ahead [ `Crash 1.2; `Recover 1.3 ] in
  check "no reply" true (sent = None);
  match fsyncs with
  | [ sp ] ->
      check "closed Error crash" true
        (sp.Obs.Span.status = Obs.Span.Error "crash"
        && sp.Obs.Span.end_time = 1.5)
  | _ -> Alcotest.fail "one fsync span"

let test_write_ahead_node_down () =
  (* Down since before the call and still down at durable_at: no crash
     in between, but nothing may leave a dead node. *)
  let sent, _, fsyncs = write_ahead ~call:1.1 [ `Crash 1.0; `Recover 2.0 ] in
  check "no reply" true (sent = None);
  check "closed Error crash" true
    (List.map (fun sp -> sp.Obs.Span.status) fsyncs
    = [ Obs.Span.Error "crash" ])

let test_write_ahead_no_context () =
  let sent, _, fsyncs = write_ahead ~root:false [] in
  check "sent at durable_at" true (sent = Some (1.5, -1));
  check_int "no span without a parent context" 0 (List.length fsyncs)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          QCheck_alcotest.to_alcotest heap_sorts;
        ] );
      ( "network",
        [
          Alcotest.test_case "latency" `Quick test_network_latency_positive;
          Alcotest.test_case "loss" `Quick test_network_loss;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "overlapping cuts" `Quick
            test_network_overlapping_cuts;
          Alcotest.test_case "heal all" `Quick test_network_heal_all;
          Alcotest.test_case "link loss" `Quick test_network_link_loss;
          Alcotest.test_case "slowdown" `Quick test_network_slowdown;
          QCheck_alcotest.to_alcotest draw_matches_delay;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ping pong" `Quick test_engine_ping_pong;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "crash drops" `Quick
            test_engine_crash_drops_messages;
          Alcotest.test_case "recover" `Quick test_engine_recover;
          Alcotest.test_case "crash count" `Quick test_engine_crash_count;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "live set" `Quick test_engine_live_set;
          Alcotest.test_case "background drains" `Quick
            test_engine_background_drains;
          Alcotest.test_case "budget reported" `Quick
            test_engine_budget_reported;
          QCheck_alcotest.to_alcotest dispatch_follows_push_order;
          QCheck_alcotest.to_alcotest cancel_is_a_noop_timer;
          Alcotest.test_case "raising handler" `Quick
            test_raise_leaves_queue_consistent;
          Alcotest.test_case "span context in flight" `Quick
            test_span_ctx_rides_messages;
          Alcotest.test_case "beat draws like a background send" `Quick
            test_beat_draws_like_background_send;
          Alcotest.test_case "beat reserves its seq" `Quick
            test_beat_reserves_its_seq;
        ] );
      ( "durable reply",
        [
          Alcotest.test_case "sends when durable" `Quick
            test_write_ahead_sends_when_durable;
          Alcotest.test_case "crash in between" `Quick
            test_write_ahead_crash_in_between;
          Alcotest.test_case "node down" `Quick test_write_ahead_node_down;
          Alcotest.test_case "no context" `Quick test_write_ahead_no_context;
        ] );
      ( "failure injector",
        [
          Alcotest.test_case "iid fraction" `Slow test_iid_faults_fraction;
          Alcotest.test_case "scripted" `Quick test_scripted;
          Alcotest.test_case "random subset" `Quick test_crash_random_subset;
        ] );
      ( "rpc backoff",
        [
          QCheck_alcotest.to_alcotest backoff_within_bounds;
          Alcotest.test_case "deterministic" `Quick test_backoff_deterministic;
        ] );
    ]
