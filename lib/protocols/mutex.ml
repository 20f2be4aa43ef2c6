module Engine = Sim.Engine
module Rpc = Sim.Rpc
module Failure_detector = Sim.Failure_detector
module Durable = Sim.Durable
module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Span = Obs.Span

(* Requests are totally ordered by (timestamp, client); smaller wins. *)
type req = { ts : int; client : int }

let priority a b = compare (a.ts, a.client) (b.ts, b.client)

(* Grant / Inquire / Failed carry the request they refer to: with
   retransmissions and quorum re-selection in play, a client may have
   moved on to a newer request by the time a message for an old one
   lands, and must be able to tell them apart. *)
type app =
  | Request of req
  | Grant of req
  | Inquire of req  (** the currently granted request, asked to yield *)
  | Yield of req
  | Failed of req
  | Release of req
  | Alive of { ts : int }
      (** recovery announcement: the sender lost its volatile client
          state; grants and queue entries for its requests with
          timestamps [<= ts] are void. *)

type msg = app Rpc.msg

(* Timer tags: [-1] heartbeats, [<= -2] rpc retransmissions,
   [ts] critical-section exit, [ts + wd_offset] the waiting watchdog,
   [probe_tag] the arbiter's stale-grant probe. *)
let wd_offset = 0x2000_0000
let probe_tag = 0x4000_0000

type waiting = {
  req : req;
  quorum : int list;
  grants : Bitset.t;
  mutable got_failed : bool;
  mutable pending_inquires : int list;
  started : float;
  span : int;  (** root span of this acquisition attempt *)
  mutable watchdog : int;
      (** handle of the armed watchdog timer, cancelled when the attempt
          ends (entry or abort) so it never fires as a no-op *)
}

type client_phase =
  | Idle
  | Waiting of waiting
  | In_cs of { req : req; quorum : int list }

type arbiter = {
  mutable granted_to : req option;
  mutable inquired : bool;  (** an INQUIRE to the current grantee is in flight *)
  mutable probe_req : req option;
      (** grant seen at the last probe tick: the same grant two ticks
          in a row draws a probing INQUIRE (stale-grant recovery) *)
  mutable queue : req list;  (** pending requests, sorted by priority *)
  tombstones : (int * int, unit) Hashtbl.t;
      (** (ts, client) of releases that overtook their request *)
  alive_floor : int array;
      (** per client: highest Alive watermark seen; requests at or
          below it predate the client's last recovery and are dropped *)
}

type instruments = {
  mx_entries : Metrics.counter;
  mx_violations : Metrics.counter;
  mx_unavailable : Metrics.counter;
  mx_reselections : Metrics.counter;
  mx_abandoned : Metrics.counter;
  mx_latency : Metrics.histogram;
}

type t = {
  system : Quorum.System.t;
  capacity : int;
  cs_duration : float;
  acquire_timeout : float;
  engine : msg Engine.t;
  rpc : app Rpc.t;
  fd : msg Failure_detector.t;
  dur : (int * int) Durable.t;
      (** durable log of tombstones [(ts, client)] per arbiter *)
  granted : req option Durable.cell;
      (** durable register of each arbiter's current grant *)
  mutable clock : int;  (** request timestamp source *)
  clients : client_phase array;
  pending : int array;  (** requests queued while the node was busy *)
  arbiters : arbiter array;
  probe_due : float array;
      (** fire time of each node's one legitimate probe chain (stale
          chains left over from crash/recovery races are dropped) *)
  mutable in_cs_count : int;
  mutable max_concurrency : int;
  mutable entries : int;
  mutable violations : int;
  mutable unavailable : int;
  mutable reselections : int;
  mutable abandoned : int;
  ins : instruments;
}

let spans t = Obs.spans (Engine.obs t.engine)

let entries t = t.entries
let violations t = t.violations
let max_concurrency t = t.max_concurrency
let unavailable t = t.unavailable
let reselections t = t.reselections
let abandoned t = t.abandoned
let acquire_latency t = t.ins.mx_latency
let dead_letters t = Rpc.dead_letters t.rpc
let retransmissions t = Rpc.retransmissions t.rpc

let rsend t ~src ~dst m = Rpc.send t.rpc ~src ~dst m

let insert_sorted req queue =
  let rec go = function
    | [] -> [ req ]
    | r :: rest as all ->
        if priority req r < 0 then req :: all else r :: go rest
  in
  go queue

(* --- Arbiter side ------------------------------------------------- *)

(* Grants are the mutex's only safety-critical state: an arbiter that
   forgets who it granted to can grant again, and two simultaneous
   grants from an intersecting-quorum member break mutual exclusion.
   So the decision is persisted write-ahead — the Grant message leaves
   only once the durable register holds it.  Everything else an
   arbiter keeps (queue, inquire flag, probe state, alive floors,
   tombstones) is liveness-only: the probe chain and client watchdogs
   reconstruct progress after any loss. *)
let arbiter_grant t ~arbiter_id a req =
  a.granted_to <- Some req;
  a.inquired <- false;
  let engine = t.engine in
  let now = Engine.now engine in
  let durable_at =
    Durable.set t.granted ~node:arbiter_id ~now (Some req)
  in
  if durable_at <= now then rsend t ~src:arbiter_id ~dst:req.client (Grant req)
  else begin
    (* [Durable.send_when_durable] plus one more condition: the grant
       must still be the arbiter's current one when it leaves, and a
       dropped grant reports "superseded". *)
    let parent = Engine.span_ctx engine in
    let fspan =
      if parent >= 0 then
        Span.start (spans t) ~time:now ~node:arbiter_id ~parent
          "mutex.fsync"
      else -1
    in
    let crashes = Engine.crashes engine ~node:arbiter_id in
    Engine.schedule engine ~time:durable_at (fun () ->
        let still_current =
          match a.granted_to with
          | Some r -> priority r req = 0
          | None -> false
        in
        let send =
          Engine.crashes engine ~node:arbiter_id = crashes
          && Engine.is_live engine arbiter_id
          && still_current
        in
        if fspan >= 0 then
          Span.finish (spans t) ~time:durable_at
            ~status:(if send then Span.Ok else Span.Error "superseded")
            fspan;
        if send then rsend t ~src:arbiter_id ~dst:req.client (Grant req))
  end

let arbiter_clear_grant t ~arbiter_id a =
  a.granted_to <- None;
  ignore
    (Durable.set t.granted ~node:arbiter_id
       ~now:(Engine.now t.engine)
       None)

let arbiter_on_request t ~node:j req =
  let a = t.arbiters.(j) in
  if req.ts <= a.alive_floor.(req.client) then
    (* A pre-crash request from a client that has since announced
       recovery: its grants would never be used. *)
    ()
  else if Hashtbl.mem a.tombstones (req.ts, req.client) then
    (* Its Release overtook it (no delivery-order guarantee). *)
    Hashtbl.remove a.tombstones (req.ts, req.client)
  else
    match a.granted_to with
    | None -> arbiter_grant t ~arbiter_id:j a req
    | Some current ->
        a.queue <- insert_sorted req a.queue;
        if priority req current < 0 then begin
          (* The newcomer outranks the grant: ask the grantee to yield
             (at most one outstanding inquire). *)
          if not a.inquired then begin
            a.inquired <- true;
            rsend t ~src:j ~dst:current.client (Inquire current)
          end
        end
        else rsend t ~src:j ~dst:req.client (Failed req)

let arbiter_next t ~node:j a =
  match a.queue with
  | [] -> arbiter_clear_grant t ~arbiter_id:j a
  | best :: rest ->
      a.queue <- rest;
      arbiter_grant t ~arbiter_id:j a best;
      (* Everyone left behind is now outranked by the new grantee and
         must learn it cannot currently win, or a waiting client that
         was never FAILED would sit on an INQUIRE forever (deadlock). *)
      List.iter (fun r -> rsend t ~src:j ~dst:r.client (Failed r)) rest

let arbiter_on_release t ~node:j req =
  let a = t.arbiters.(j) in
  match a.granted_to with
  | Some current when priority current req = 0 ->
      a.inquired <- false;
      arbiter_next t ~node:j a
  | Some _ | None ->
      (* Stale release (e.g. after yield, or an aborted attempt): drop
         the request from the queue if it is still there; if it has not
         even arrived yet, tombstone it. *)
      let len = List.length a.queue in
      a.queue <- List.filter (fun r -> priority r req <> 0) a.queue;
      if List.length a.queue = len then begin
        Hashtbl.replace a.tombstones (req.ts, req.client) ();
        (* Persisted fire-and-forget: losing a tombstone to a crash
           only risks a stuck grant, which the probe chain reclaims. *)
        ignore
          (Durable.append t.dur ~node:j
             ~now:(Engine.now t.engine)
             (req.ts, req.client))
      end

let arbiter_on_yield t ~node:j req =
  let a = t.arbiters.(j) in
  match a.granted_to with
  | Some current when priority current req = 0 ->
      a.inquired <- false;
      a.queue <- insert_sorted req a.queue;
      arbiter_next t ~node:j a
  | Some _ | None -> ()

(* The stale-grant probe.  A Release can be dead-lettered (its sender
   unreachable long enough for the rpc layer to give up), leaving the
   arbiter granted to a request its client has abandoned — and every
   later request queued behind it, forever.  Each arbiter therefore
   runs a background probe chain: a grant still held after two
   consecutive ticks draws an INQUIRE.  A legitimately slow grantee
   answers as usual (yield only if it cannot currently win); a client
   that has moved past the request answers RELEASE, unsticking the
   arbiter.  Background, so probes never keep an otherwise-drained
   simulation alive. *)
let schedule_probe t ~node =
  let delay = Failure_detector.timeout t.fd in
  t.probe_due.(node) <- Engine.now t.engine +. delay;
  Engine.set_timer t.engine ~background:true ~node ~delay ~tag:probe_tag

let arbiter_probe t ~node =
  (* Only the chain matching [probe_due] survives; duplicates left over
     from crash/recovery races die here. *)
  if Float.abs (Engine.now t.engine -. t.probe_due.(node)) <= 1e-6 then begin
    let a = t.arbiters.(node) in
    (match (a.granted_to, a.probe_req) with
    | Some r, Some p when priority r p = 0 ->
        rsend t ~src:node ~dst:r.client (Inquire r)
    | _ -> ());
    a.probe_req <- a.granted_to;
    schedule_probe t ~node
  end

let arbiter_on_alive t ~node:j ~client ~ts =
  let a = t.arbiters.(j) in
  if ts > a.alive_floor.(client) then a.alive_floor.(client) <- ts;
  a.queue <-
    List.filter (fun r -> not (r.client = client && r.ts <= ts)) a.queue;
  match a.granted_to with
  | Some r when r.client = client && r.ts <= ts ->
      (* The grantee lost its state: the grant is void. *)
      a.inquired <- false;
      arbiter_next t ~node:j a
  | Some _ | None -> ()

(* --- Client side -------------------------------------------------- *)

let enter_cs t ~node (w : waiting) =
  Engine.cancel t.engine w.watchdog;
  t.clients.(node) <- In_cs { req = w.req; quorum = w.quorum };
  t.in_cs_count <- t.in_cs_count + 1;
  if t.in_cs_count > t.max_concurrency then
    t.max_concurrency <- t.in_cs_count;
  let ins = t.ins in
  if t.in_cs_count > t.capacity then begin
    t.violations <- t.violations + 1;
    Metrics.incr ins.mx_violations
  end;
  t.entries <- t.entries + 1;
  Metrics.incr ins.mx_entries;
  Metrics.observe ins.mx_latency (Engine.now t.engine -. w.started);
  Span.finish (spans t) ~time:(Engine.now t.engine) w.span;
  Trace.record
    (Obs.trace (Engine.obs t.engine))
    ~time:(Engine.now t.engine) ~node ~peer:(-1) ~msg_id:(-1) ~span:w.span
    ~label:"mutex.enter" Trace.Note;
  (* Leave after cs_duration: encoded as a timer tagged by ts. *)
  Engine.set_timer t.engine ~node ~delay:t.cs_duration ~tag:w.req.ts

let client_answer_inquires t ~node w =
  (* Only yield when this request cannot currently win.  An INQUIRE can
     overtake the GRANT it refers to; such inquires stay pending until
     the grant lands. *)
  if w.got_failed then begin
    let still_pending =
      List.filter
        (fun j ->
          if Bitset.mem w.grants j then begin
            Bitset.remove w.grants j;
            rsend t ~src:node ~dst:j (Yield w.req);
            false
          end
          else true)
        w.pending_inquires
    in
    w.pending_inquires <- still_pending
  end

let client_on_grant t ~node ~src req =
  match t.clients.(node) with
  | Waiting w when priority w.req req = 0 ->
      Bitset.add w.grants src;
      let all = List.for_all (fun j -> Bitset.mem w.grants j) w.quorum in
      if all then enter_cs t ~node w
      else
        (* A pending inquire may have been waiting for this grant. *)
        client_answer_inquires t ~node w
  | Waiting _ | Idle | In_cs _ ->
      (* A grant for an attempt we already abandoned; the Release we
         sent when abandoning it frees the arbiter. *)
      ()

let client_on_inquire t ~node ~src req =
  match t.clients.(node) with
  | Waiting w when priority w.req req = 0 ->
      if not (List.mem src w.pending_inquires) then
        w.pending_inquires <- src :: w.pending_inquires;
      client_answer_inquires t ~node w
  | In_cs { req = r; _ } when priority r req = 0 ->
      (* Inside on this very request: the release comes at exit. *)
      ()
  | Waiting _ | In_cs _ | Idle ->
      (* An inquire about a request that is no longer active here
         (abandoned, yielded long ago, or pre-crash).  We will never
         use a grant for it, so the safe answer is RELEASE — this is
         what lets an arbiter's probe reclaim a stuck grant whose
         original release was dead-lettered. *)
      rsend t ~src:node ~dst:src (Release req)

let client_on_failed t ~node req =
  match t.clients.(node) with
  | Waiting w when priority w.req req = 0 ->
      w.got_failed <- true;
      client_answer_inquires t ~node w
  | Waiting _ | Idle | In_cs _ -> ()

let release_quorum t ~node req quorum =
  List.iter (fun j -> rsend t ~src:node ~dst:j (Release req)) quorum

(* Issue a fresh request from [node], choosing the quorum among the
   nodes its failure detector currently trusts. *)
let rec issue_request t ~node =
  let view = Failure_detector.view t.fd ~node in
  match t.system.Quorum.System.select (Engine.rng t.engine) ~live:view with
  | None ->
      t.unavailable <- t.unavailable + 1;
      Metrics.incr t.ins.mx_unavailable;
      t.clients.(node) <- Idle
  | Some quorum_set ->
      t.clock <- t.clock + 1;
      let req = { ts = t.clock; client = node } in
      let quorum = Bitset.to_list quorum_set in
      let span =
        Span.start (spans t) ~time:(Engine.now t.engine) ~node
          "mutex.acquire"
      in
      let w =
        {
          req;
          quorum;
          grants = Bitset.create (Array.length t.clients);
          got_failed = false;
          pending_inquires = [];
          started = Engine.now t.engine;
          span;
          watchdog = -1;
        }
      in
      t.clients.(node) <- Waiting w;
      Engine.with_span_ctx t.engine span (fun () ->
          List.iter (fun j -> rsend t ~src:node ~dst:j (Request req)) quorum;
          w.watchdog <-
            Engine.timer t.engine ~node
              ~delay:(Failure_detector.timeout t.fd)
              ~tag:(req.ts + wd_offset))

(* Abandon the current attempt (releasing any grants collected and any
   queue positions held) and, if [retry], immediately re-select an
   alternate quorum that avoids the nodes now suspected. *)
and abort_attempt t ~node w ~retry =
  Engine.cancel t.engine w.watchdog;
  release_quorum t ~node w.req w.quorum;
  t.clients.(node) <- Idle;
  Span.finish (spans t)
    ~time:(Engine.now t.engine)
    ~status:(Span.Error (if retry then "reselect" else "abandoned"))
    w.span;
  if retry then begin
    t.reselections <- t.reselections + 1;
    Metrics.incr t.ins.mx_reselections
      ~labels:[ ("node", string_of_int node) ];
    issue_request t ~node
  end

let request t ~node =
  if Engine.is_live t.engine node then
    match t.clients.(node) with
    | Waiting _ | In_cs _ ->
        (* One outstanding request per node: queue and reissue after
           the current critical section completes. *)
        t.pending.(node) <- t.pending.(node) + 1
    | Idle -> issue_request t ~node

let drain_pending t ~node =
  if t.pending.(node) > 0 then begin
    t.pending.(node) <- t.pending.(node) - 1;
    request t ~node
  end

(* The waiting watchdog: fires every failure-detector timeout while a
   request is outstanding.  If a quorum member that has not granted yet
   has become suspect, the attempt cannot complete — re-select around
   it.  Attempts older than [acquire_timeout] are abandoned outright. *)
let client_watchdog t ~node ~ts =
  match t.clients.(node) with
  | Waiting w when w.req.ts = ts ->
      if Engine.now t.engine -. w.started >= t.acquire_timeout then begin
        t.abandoned <- t.abandoned + 1;
        Metrics.incr t.ins.mx_abandoned;
        abort_attempt t ~node w ~retry:false;
        drain_pending t ~node
      end
      else begin
        let blocked =
          List.exists
            (fun j ->
              (not (Bitset.mem w.grants j))
              && Failure_detector.suspects t.fd ~node j)
            w.quorum
        in
        if blocked then abort_attempt t ~node w ~retry:true
        else
          w.watchdog <-
            Engine.timer t.engine ~node
              ~delay:(Failure_detector.timeout t.fd)
              ~tag:(ts + wd_offset)
      end
  | Waiting _ | Idle | In_cs _ -> ()

let exit_cs t ~node req quorum =
  t.clients.(node) <- Idle;
  t.in_cs_count <- t.in_cs_count - 1;
  release_quorum t ~node req quorum

let on_dead_letter t ~src ~dst payload =
  (* The rpc layer gave up on [dst].  Only an unanswered Request can
     strand the sender: abandon that attempt and re-select around the
     unreachable member.  Grants and releases to unreachable peers are
     left to recovery announcements / acquire timeouts. *)
  match payload with
  | Request req -> (
      match t.clients.(src) with
      | Waiting w
        when priority w.req req = 0 && (not (Bitset.mem w.grants dst)) ->
          abort_attempt t ~node:src w ~retry:true
      | Waiting _ | Idle | In_cs _ -> ())
  | Grant _ | Inquire _ | Yield _ | Failed _ | Release _ | Alive _ -> ()

(* --- Wiring ------------------------------------------------------- *)

let dispatch_app t ~node ~src = function
  | Request req -> arbiter_on_request t ~node req
  | Grant req -> client_on_grant t ~node ~src req
  | Inquire req -> client_on_inquire t ~node ~src req
  | Yield req -> arbiter_on_yield t ~node req
  | Failed req -> client_on_failed t ~node req
  | Release req -> arbiter_on_release t ~node req
  | Alive { ts } -> arbiter_on_alive t ~node ~client:src ~ts

let handlers t : msg Engine.handlers =
  (* One delivery closure per node, built once. *)
  let deliver =
    Array.init (Array.length t.clients) (fun node ->
        let deliver ~src payload = dispatch_app t ~node ~src payload in
        deliver)
  in
  {
    on_message =
      (fun _engine ~node ~src msg ->
        Rpc.on_message t.rpc ~node ~src msg ~deliver:deliver.(node));
    on_timer =
      (fun _engine ~node ~tag ->
        if Failure_detector.on_timer t.fd ~node ~tag then ()
        else if Rpc.on_timer t.rpc ~node ~tag then ()
        else if tag = probe_tag then arbiter_probe t ~node
        else if tag >= wd_offset then
          client_watchdog t ~node ~ts:(tag - wd_offset)
        else
          match t.clients.(node) with
          | In_cs { req; quorum } when req.ts = tag ->
              exit_cs t ~node req quorum;
              drain_pending t ~node
          | In_cs _ | Waiting _ | Idle -> ());
    on_crash =
      (fun engine ~node ->
        (* Volatile client state is lost; the arbiter's grant register
           and tombstone log live in the durable store (whether the
           in-memory arbiter state survives depends on how the node
           recovers — see [on_recover]).  The node's unacked sends die
           with it. *)
        Rpc.on_crash t.rpc ~node;
        Durable.crash t.dur ~node ~now:(Engine.now engine);
        (match t.clients.(node) with
        | In_cs _ -> t.in_cs_count <- t.in_cs_count - 1
        | Waiting w ->
            Span.finish (spans t) ~time:(Engine.now engine)
              ~status:(Span.Error "crash") w.span
        | Idle -> ());
        t.clients.(node) <- Idle;
        t.pending.(node) <- 0);
    on_recover =
      (fun engine ~node ~amnesia ->
        Failure_detector.on_recover t.fd ~node;
        if amnesia then begin
          (* The arbiter's memory is gone: restore the safety-critical
             grant register from its durable value and the tombstones
             from the log; everything else (queue, inquire flag, probe
             state, alive floors) resets and is rebuilt by the probe
             chain, client watchdogs and fresh Alive floors. *)
          let a = t.arbiters.(node) in
          let now = Engine.now engine in
          a.granted_to <-
            (match Durable.durable_value t.granted ~node ~now with
            | Some g -> g
            | None -> None);
          a.inquired <- false;
          a.probe_req <- None;
          a.queue <- [];
          Array.fill a.alive_floor 0 (Array.length a.alive_floor) 0;
          Hashtbl.reset a.tombstones;
          List.iter
            (fun tc -> Hashtbl.replace a.tombstones tc ())
            (Durable.replay t.dur ~node ~now)
        end;
        (* Crash dropped the node's timers: restart its probe chain
           (the due-time check retires any duplicate survivors). *)
        schedule_probe t ~node;
        (* Announce the recovery: any grant or queued request of ours
           with an older timestamp is void (we lost the state that
           could have used it).  Reliable, to every arbiter. *)
        t.clock <- t.clock + 1;
        let ts = t.clock in
        for j = 0 to Array.length t.clients - 1 do
          if j = node then arbiter_on_alive t ~node:j ~client:node ~ts
          else rsend t ~src:node ~dst:j (Alive { ts })
        done);
  }

let make_instruments m =
  {
    mx_entries =
      Metrics.counter m ~help:"critical-section entries" "mutex.entries";
    mx_violations =
      Metrics.counter m ~help:"concurrent entries beyond capacity"
        "mutex.violations";
    mx_unavailable =
      Metrics.counter m ~help:"requests with no live quorum to select"
        "mutex.unavailable";
    mx_reselections =
      Metrics.counter m
        ~help:"attempts re-issued around suspected members, by node"
        "mutex.reselections";
    mx_abandoned =
      Metrics.counter m ~help:"attempts given up at acquire_timeout"
        "mutex.abandoned";
    mx_latency =
      Metrics.histogram m ~help:"request-to-entry latency (simulated time)"
        "mutex.acquire_latency";
  }

let of_config engine ?(config = Client_config.default) ?(capacity = 1)
    ~system ~cs_duration () =
  if capacity < 1 then invalid_arg "Mutex.of_config: capacity >= 1";
  if config.Client_config.timeout <= 0.0 then
    invalid_arg "Mutex.of_config: acquire_timeout";
  let n = system.Quorum.System.n in
  if Engine.nodes engine <> n then
    invalid_arg "Mutex.of_config: engine size mismatch";
  let obs = Engine.obs engine in
  let ins = make_instruments (Obs.metrics obs) in
  let dur = Durable.create ~obs ~nodes:n config.Client_config.durability in
  let granted = Durable.cell dur ~name:"mutex.granted" in
  let rpc = Rpc.create engine ~timeout:Client_config.rpc_timeout () in
  let fd =
    Failure_detector.create engine ~period:config.Client_config.fd.period
      ~timeout:config.Client_config.fd.timeout
      ~mode:(Client_config.fd_mode config) ()
  in
  let t =
    {
      system;
      capacity;
      cs_duration;
      acquire_timeout = config.Client_config.timeout;
      engine;
      rpc;
      fd;
      dur;
      granted;
      clock = 0;
      clients = Array.make n Idle;
      pending = Array.make n 0;
      arbiters =
        Array.init n (fun _ ->
            {
              granted_to = None;
              inquired = false;
              probe_req = None;
              queue = [];
              tombstones = Hashtbl.create 8;
              alive_floor = Array.make n 0;
            });
      probe_due = Array.make n infinity;
      in_cs_count = 0;
      max_concurrency = 0;
      entries = 0;
      violations = 0;
      unavailable = 0;
      reselections = 0;
      abandoned = 0;
      ins;
    }
  in
  Rpc.set_dead_letter_handler rpc (fun ~src ~dst payload ->
      on_dead_letter t ~src ~dst payload);
  for node = 0 to n - 1 do
    schedule_probe t ~node
  done;
  Engine.set_handlers engine (handlers t);
  t
