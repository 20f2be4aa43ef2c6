module Engine = Sim.Engine
module Rpc = Sim.Rpc
module Failure_detector = Sim.Failure_detector
module Durable = Sim.Durable
module Batcher = Sim.Batcher
module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics
module Span = Obs.Span

type app =
  | Version_req of { op : int; key : int }
  | Version_rep of { op : int; version : int; value : int }
  | Write_req of { op : int; key : int; version : int; value : int }
  | Write_ack of { op : int }
  | Recovering of { op : int }
      (** nack: the replica is an amnesiac recoverer that has not
          finished its re-join sync and refuses to serve *)
  | Sync_req of { sync : int }
  | Sync_rep of { sync : int; entries : (int * int * int) list }
      (** (key, version, value) dump of the helper's replica table *)
  | Batch_req of { reqs : app list }
      (** k version/write requests amortized over one rpc exchange and
          one durable flush *)
  | Batch_rep of { reps : app list }  (** their replies, also batched *)

type msg = app Rpc.msg

type phase =
  | Reading of {
      waiting_for : Bitset.t;
      targets : Bitset.t;
          (** everyone this attempt was sent to: the selected quorum
              plus any hedge backups added later *)
      acked : Bitset.t;  (** targets that replied (dedup by op id) *)
      mutable best : int * int;
    }
      (** Collecting (version, value) replies from a read quorum. *)
  | Writing of { waiting_for : Bitset.t; targets : Bitset.t; acked : Bitset.t }

type kind = Read_op | Write_op of int  (** payload for the write phase *)

type outcome =
  | Read_done of { version : int; value : int }
  | Write_done of { version : int }
  | Timed_out
  | Unavailable

type request = Get of { key : int } | Put of { key : int; value : int }

type pending = {
  p_key : int;
  p_kind : kind;
  p_notify : (outcome -> unit) option;
}

type session = {
  ses_id : int;
  ses_client : int;
  ses_submitted : Metrics.counter Metrics.Handle.t;  (** [client=i] *)
  ses_shed : Metrics.counter Metrics.Handle.t;
  ses_backlog_peak : Metrics.gauge Metrics.Handle.t;
  window : int;
  max_queue : int;
  batcher : app Batcher.t option;  (** [None]: unbatched, send directly *)
  mutable backlog : pending list;  (** submission order, oldest first *)
  mutable backlog_len : int;
  keys_busy : (int, int) Hashtbl.t;
      (** keys with an in-flight op: per-key FIFO — a later op on the
          same key never overtakes an earlier one, so a window-w run
          commits each key's writes in submission order *)
  mutable in_flight : int;
  mutable submitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable peak_backlog : int;
}

type op = {
  id : int;
  client : int;
  key : int;
  kind : kind;
  started : float;
  mutable phase : phase;
  mutable write_version : int;
  mutable retries_left : int;
  mutable deadline : float;
      (** current attempt's timeout instant; identifies the attempt *)
  mutable attempt_timer : int;
      (** {!Engine.timer} handle of the current attempt's timeout;
          cancelled when the op ends or relaunches *)
  mutable done_ : bool;
  mutable span : int;  (** root span of the whole client operation *)
  mutable attempt_span : int;  (** span of the current quorum attempt *)
  mutable last_send : float;
      (** when this op last fanned requests out — the base of the
          per-peer latency samples its replies contribute *)
  mutable hedge_armed : float;
      (** the [deadline] of the attempt whose hedge timer is pending;
          a fire against a superseded attempt is ignored *)
  sess : session;
  notify : (outcome -> unit) option;
}

type instruments = {
  st_reads_ok : Metrics.counter;
  st_writes_ok : Metrics.counter;
  st_unavailable : Metrics.counter;
  st_timeouts : Metrics.counter;
  st_retries : Metrics.counter;
  st_rejoins : Metrics.counter;
  st_refusals : Metrics.counter;
  st_latency : Metrics.histogram;
  st_read_latency : Metrics.histogram Metrics.Handle.t;  (** [op=read] *)
  st_write_latency : Metrics.histogram Metrics.Handle.t;  (** [op=write] *)
  st_sessions : Metrics.counter;
  st_submitted : Metrics.counter;
  st_shed : Metrics.counter;
  st_batches : Metrics.counter;
  st_batched : Metrics.counter;
  st_backlog_peak : Metrics.gauge;
  st_hedges : Metrics.counter;
  st_degraded_writes : Metrics.counter;
  st_degraded : Metrics.gauge;
}

type sync = {
  sync_id : int;
  sync_waiting : Bitset.t;
  sync_acc : (int, int * int) Hashtbl.t;  (** key -> best (version, value) *)
}

type service = { per_req : float; per_batch : float }

let no_service = { per_req = 0.0; per_batch = 0.0 }

let service ?(per_req = 0.0) ?(per_batch = 0.0) () =
  if per_req < 0.0 || per_batch < 0.0 then
    invalid_arg "Replicated_store.service";
  { per_req; per_batch }

type t = {
  read_system : Quorum.System.t;
  write_system : Quorum.System.t;
  router : Shard_router.t option;
      (** when present, per-key quorum selection goes through the
          router's subquorum systems instead of the globals *)
  serv : service;
  timeout : float;
  retries : int;
  routing : Client_config.routing;
  engine : msg Engine.t;
  rpc : app Rpc.t;
  fd : msg Failure_detector.t;
  dur : (int * int * int) Durable.t;
      (** write-ahead log of installed (key, version, value) records *)
  ops : (int, op) Hashtbl.t;
  mutable next_op : int;
  mutable next_session : int;
  replicas : (int, int * int) Hashtbl.t array;  (** key -> (version, value) *)
  rejoining : bool array;
      (** amnesiac recoverers that have not completed their sync yet *)
  busy_until : float array;
      (** replica service model: instant each node's processor frees up *)
  syncs : sync option array;
  mutable next_sync : int;
  mutable reads_ok : int;
  mutable writes_ok : int;
  mutable unavailable : int;
  mutable timeouts : int;
  mutable retried : int;
  mutable rejoins : int;
  mutable refusals : int;
  mutable batches : int;
  mutable batched_ops : int;
  mutable shed : int;
  mutable hedges : int;  (** hedge requests sent to backup replicas *)
  mutable degraded_writes : int;
      (** writes refused fast by the degraded read-only mode *)
  mutable degraded : bool;  (** currently in degraded read-only mode *)
  (* Per-peer completed-request latency samples (bounded ring), the
     adaptive base of the hedge delay.  Pure bookkeeping: no RNG, no
     events. *)
  lat_ring : float array array;
  lat_len : int array;
  lat_pos : int array;
  mutable history : Obs.Trace_analysis.hop list;
      (** completed client ops, newest first — auditor input *)
  ins : instruments;
}

let reads_ok t = t.reads_ok
let writes_ok t = t.writes_ok
let unavailable t = t.unavailable
let timeouts t = t.timeouts
let retried t = t.retried
let stale_reads t = Obs.Trace_analysis.stale_reads t.history
let rejoins t = t.rejoins
let rejoin_refusals t = t.refusals
let rejoining t ~node = t.rejoining.(node)
let batches t = t.batches
let batched_ops t = t.batched_ops
let shed t = t.shed
let hedges t = t.hedges
let degraded_writes t = t.degraded_writes
let degraded t = t.degraded
let fd_stats t ~node = Failure_detector.stats t.fd ~node

let replica_value t ~node ~key = Hashtbl.find_opt t.replicas.(node) key

let log_length t ~node = Durable.log_length t.dur ~node
let dead_letters t = Rpc.dead_letters t.rpc
let retransmissions t = Rpc.retransmissions t.rpc
let op_latency t = t.ins.st_latency
let history t = List.rev t.history
let spans t = Obs.spans (Engine.obs t.engine)

(* Per-key quorum systems: the router's subquorums when sharded, the
   globals otherwise. *)
let read_system_for t key =
  match t.router with
  | None -> t.read_system
  | Some r -> Shard_router.read_system r ~key

let write_system_for t key =
  match t.router with
  | None -> t.write_system
  | Some r -> Shard_router.write_system r ~key

let universe t = t.read_system.Quorum.System.n

let mark_unavailable t =
  t.unavailable <- t.unavailable + 1;
  Metrics.incr t.ins.st_unavailable

let rsend t ~src ~dst m = Rpc.send t.rpc ~src ~dst m

(* Route a quorum request through the op's session batcher when one is
   configured; unbatched sessions send exactly the bare messages the
   pre-session store sent. *)
let emit t (op : op) ~dst payload =
  match op.sess.batcher with
  | Some b -> Batcher.add b ~dst payload
  | None -> rsend t ~src:op.client ~dst payload

(* --- Suspicion-aware routing: hedging + degraded mode --------------- *)

(* Hedge timers live in their own tag space above the op-id tags. *)
let hedge_offset = 0x1000_0000

(* A straggler is hedged after the worst [straggler_quantile] of the
   awaited members' recent reply latencies, never before
   [min_hedge_delay] (the cold-start guard while samples accumulate). *)
let straggler_quantile = 0.9
let min_hedge_delay = 2.0

let record_latency t ~peer sample =
  let ring = t.lat_ring.(peer) in
  let cap = Array.length ring in
  ring.(t.lat_pos.(peer)) <- sample;
  t.lat_pos.(peer) <- (t.lat_pos.(peer) + 1) mod cap;
  if t.lat_len.(peer) < cap then t.lat_len.(peer) <- t.lat_len.(peer) + 1

(* The hedge delay for an attempt: the worst per-peer latency quantile
   across the members we are waiting on, floored by the cold-start
   guard.  Nearest-rank on the peer's recent samples. *)
let hedge_delay t waiting =
  let worst = ref 0.0 in
  Bitset.iter
    (fun j ->
      let len = t.lat_len.(j) in
      if len > 0 then begin
        let a = Array.sub t.lat_ring.(j) 0 len in
        Array.sort compare a;
        let idx =
          min (len - 1)
            (int_of_float (ceil (straggler_quantile *. float_of_int len)) - 1)
        in
        let idx = max 0 idx in
        if a.(idx) > !worst then worst := a.(idx)
      end)
    waiting;
  Float.max min_hedge_delay !worst

(* Degraded read-only mode: latched while the client's view holds no
   write quorum, cleared the first time a write finds one again. *)
let set_degraded t flag =
  if flag <> t.degraded then begin
    t.degraded <- flag;
    Metrics.set t.ins.st_degraded (if flag then 1.0 else 0.0)
  end

(* Arm one hedge check for the op's current attempt.  Only on the
   unbatched path: a hedged Batch_req would duplicate every rider.
   With [routing.hedge] off this is never called, so no timer is
   scheduled and runs stay bit-identical to the pre-hedging store. *)
let arm_hedge t (op : op) waiting =
  if t.routing.hedge && op.sess.batcher = None && not (Bitset.is_empty waiting)
  then begin
    op.hedge_armed <- op.deadline;
    Engine.set_timer t.engine ~node:op.client ~delay:(hedge_delay t waiting)
      ~tag:(hedge_offset + op.id)
  end

(* Select a fresh read quorum — from the client's failure-detector
   view, not the omniscient live-set — and (re)enter the version
   phase. *)
let rec launch_attempt t (op : op) =
  let sp = spans t in
  let now = Engine.now t.engine in
  (* A relaunch supersedes the previous attempt's timeout and span. *)
  Engine.cancel t.engine op.attempt_timer;
  if op.attempt_span >= 0 then
    Span.finish sp ~time:now ~status:(Span.Error "retry") op.attempt_span;
  let live = Failure_detector.view t.fd ~node:op.client in
  (* Degraded read-only mode: a write that sees no unsuspected write
     quorum is refused immediately instead of burning the attempt
     timeout on a doomed read phase; reads keep flowing. *)
  let degraded_refusal =
    t.routing.degraded_reads
    &&
    match op.kind with
    | Read_op -> false
    | Write_op _ ->
        let ok = (write_system_for t op.key).Quorum.System.avail live in
        set_degraded t (not ok);
        not ok
  in
  if degraded_refusal then begin
    t.degraded_writes <- t.degraded_writes + 1;
    Metrics.incr t.ins.st_degraded_writes;
    Hashtbl.remove t.ops op.id;
    Span.finish sp ~time:now ~status:(Span.Error "degraded") op.span;
    mark_unavailable t;
    session_completed t op Unavailable
  end
  else
    match
      (read_system_for t op.key).Quorum.System.select (Engine.rng t.engine)
        ~live
    with
    | None ->
        Hashtbl.remove t.ops op.id;
        Span.finish sp ~time:now ~status:(Span.Error "unavailable") op.span;
        mark_unavailable t;
        session_completed t op Unavailable
    | Some quorum ->
        op.phase <-
          Reading
            {
              waiting_for = Bitset.copy quorum;
              (* The selected quorum is ours: no second copy. *)
              targets = quorum;
              acked = Bitset.create (universe t);
              best = (0, 0);
            };
        op.deadline <- now +. t.timeout;
        op.last_send <- now;
        op.attempt_span <-
          Span.start sp ~time:now ~node:op.client ~parent:op.span
            "store.attempt";
        Engine.with_span_ctx t.engine op.attempt_span (fun () ->
            Bitset.iter
              (fun j ->
                emit t op ~dst:j (Version_req { op = op.id; key = op.key }))
              quorum;
            op.attempt_timer <-
              Engine.timer t.engine ~node:op.client ~delay:t.timeout
                ~tag:op.id;
            arm_hedge t op quorum)

(* One client operation through a session: identical to the historical
   per-op path, plus session bookkeeping on completion. *)
and start_session_op t s ?notify ~key kind =
  let client = s.ses_client in
  if not (Engine.is_live t.engine client) then begin
    (* A dead client cannot submit: counted with the refused ops. *)
    mark_unavailable t;
    s.in_flight <- s.in_flight - 1;
    release_key s key;
    s.completed <- s.completed + 1;
    (match notify with Some f -> f Unavailable | None -> ());
    session_pump t s
  end
  else begin
    let id = t.next_op in
    t.next_op <- t.next_op + 1;
    let op =
      {
        id;
        client;
        key;
        kind;
        started = Engine.now t.engine;
        phase =
          Reading
            {
              waiting_for = Bitset.create 0;
              targets = Bitset.create 0;
              acked = Bitset.create 0;
              best = (0, 0);
            };
        write_version = 0;
        retries_left = t.retries;
        deadline = 0.0;
        attempt_timer = -1;
        done_ = false;
        span = -1;
        attempt_span = -1;
        last_send = 0.0;
        hedge_armed = neg_infinity;
        sess = s;
        notify;
      }
    in
    op.span <-
      Span.start (spans t) ~time:op.started ~node:client
        (match kind with
        | Read_op -> "store.read"
        | Write_op _ -> "store.write");
    Hashtbl.add t.ops id op;
    launch_attempt t op
  end

and release_key s key =
  match Hashtbl.find_opt s.keys_busy key with
  | Some c when c <= 1 -> Hashtbl.remove s.keys_busy key
  | Some c -> Hashtbl.replace s.keys_busy key (c - 1)
  | None -> ()

(* An op left the session's window (done, failed or refused): account
   for it, notify the submitter, refill the pipeline. *)
and session_completed t (op : op) outcome =
  let s = op.sess in
  s.in_flight <- s.in_flight - 1;
  release_key s op.key;
  s.completed <- s.completed + 1;
  (match op.notify with Some f -> f outcome | None -> ());
  session_pump t s

(* Launch backlogged ops while the window has room, preserving per-key
   order: the first backlog entry whose key has no in-flight op wins. *)
and session_pump t s =
  if s.in_flight < s.window && s.backlog_len > 0 then begin
    let rec take acc = function
      | [] -> None
      | p :: rest ->
          if Hashtbl.mem s.keys_busy p.p_key then take (p :: acc) rest
          else Some (p, List.rev_append acc rest)
    in
    match take [] s.backlog with
    | None -> ()
    | Some (p, rest) ->
        s.backlog <- rest;
        s.backlog_len <- s.backlog_len - 1;
        s.in_flight <- s.in_flight + 1;
        Hashtbl.replace s.keys_busy p.p_key
          (1
          +
          match Hashtbl.find_opt s.keys_busy p.p_key with
          | Some c -> c
          | None -> 0);
        start_session_op t s ?notify:p.p_notify ~key:p.p_key p.p_kind;
        session_pump t s
  end

and finish t op outcome =
  op.done_ <- true;
  Hashtbl.remove t.ops op.id;
  Engine.cancel t.engine op.attempt_timer;
  let ins = t.ins in
  let now = Engine.now t.engine in
  let sp = spans t in
  let close status =
    if op.attempt_span >= 0 then
      Span.finish sp ~time:now ~status op.attempt_span;
    Span.finish sp ~time:now ~status op.span
  in
  let record_hop ~is_write version =
    t.history <-
      {
        Obs.Trace_analysis.client = op.client;
        key = op.key;
        is_write;
        version;
        started = op.started;
        finished = now;
        span = op.span;
      }
      :: t.history
  in
  match outcome with
  | `Read_done (version, value) ->
      t.reads_ok <- t.reads_ok + 1;
      Metrics.incr ins.st_reads_ok;
      Metrics.Handle.observe ins.st_read_latency (now -. op.started);
      close Span.Ok;
      record_hop ~is_write:false version;
      session_completed t op (Read_done { version; value })
  | `Write_done version ->
      t.writes_ok <- t.writes_ok + 1;
      Metrics.incr ins.st_writes_ok;
      Metrics.Handle.observe ins.st_write_latency (now -. op.started);
      close Span.Ok;
      record_hop ~is_write:true version;
      session_completed t op (Write_done { version })
  | `Timeout ->
      t.timeouts <- t.timeouts + 1;
      Metrics.incr ins.st_timeouts;
      close (Span.Error "timeout");
      session_completed t op Timed_out

(* The current attempt cannot complete (timeout or a dead-lettered
   request): retry on a fresh quorum or give up. *)
and attempt_failed t (op : op) =
  if op.retries_left > 0 && Engine.is_live t.engine op.client then begin
    op.retries_left <- op.retries_left - 1;
    t.retried <- t.retried + 1;
    Metrics.incr t.ins.st_retries;
    launch_attempt t op
  end
  else finish t op `Timeout

(* --- Sessions ------------------------------------------------------- *)

module Session = struct
  type store = t
  type nonrec t = session

  let create (t : store) ~client ?(window = 1) ?(batch_size = 1)
      ?(batch_delay = 0.0) ?(max_queue = max_int) () =
    let engine = t.engine in
    let n = Engine.nodes engine in
    if client < 0 || client >= n then
      invalid_arg "Session.create: client out of range";
    if window < 1 then invalid_arg "Session.create: window";
    if batch_size < 1 then invalid_arg "Session.create: batch_size";
    if batch_delay < 0.0 then invalid_arg "Session.create: batch_delay";
    if max_queue < 0 then invalid_arg "Session.create: max_queue";
    let id = t.next_session in
    t.next_session <- id + 1;
    let ins = t.ins in
    Metrics.incr ins.st_sessions;
    let batcher =
      if batch_size <= 1 then None
      else
        Some
          (Batcher.create ~max_size:batch_size ~max_delay:batch_delay
             ~nodes:n
             ~schedule:(fun ~delay k ->
               Engine.schedule engine ~time:(Engine.now engine +. delay) k)
             ~flush:(fun ~dst reqs ->
               t.batches <- t.batches + 1;
               t.batched_ops <- t.batched_ops + List.length reqs;
               Metrics.incr ins.st_batches;
               Metrics.incr ins.st_batched ~by:(List.length reqs);
               rsend t ~src:client ~dst (Batch_req { reqs }))
             ())
    in
    let labels = [ ("client", string_of_int client) ] in
    {
      ses_id = id;
      ses_client = client;
      ses_submitted = Metrics.Handle.counter ins.st_submitted labels;
      ses_shed = Metrics.Handle.counter ins.st_shed labels;
      ses_backlog_peak = Metrics.Handle.gauge ins.st_backlog_peak labels;
      window;
      max_queue;
      batcher;
      backlog = [];
      backlog_len = 0;
      keys_busy = Hashtbl.create 8;
      in_flight = 0;
      submitted = 0;
      completed = 0;
      shed = 0;
      peak_backlog = 0;
    }

  let submit (t : store) (s : t) ?on_complete req =
    let key, kind =
      match req with
      | Get { key } -> (key, Read_op)
      | Put { key; value } -> (key, Write_op value)
    in
    if key < 0 then invalid_arg "Session.submit: key";
    s.submitted <- s.submitted + 1;
    Metrics.Handle.incr s.ses_submitted;
    if s.in_flight < s.window && not (Hashtbl.mem s.keys_busy key) then begin
      s.in_flight <- s.in_flight + 1;
      Hashtbl.replace s.keys_busy key 1;
      start_session_op t s ?notify:on_complete ~key kind;
      true
    end
    else if s.backlog_len >= s.max_queue then begin
      (* Open-loop overload: the bounded queue sheds instead of
         growing without limit. *)
      s.shed <- s.shed + 1;
      t.shed <- t.shed + 1;
      Metrics.Handle.incr s.ses_shed;
      false
    end
    else begin
      s.backlog <-
        s.backlog @ [ { p_key = key; p_kind = kind; p_notify = on_complete } ];
      s.backlog_len <- s.backlog_len + 1;
      if s.backlog_len > s.peak_backlog then begin
        s.peak_backlog <- s.backlog_len;
        Metrics.Handle.set_max s.ses_backlog_peak
          (float_of_int s.backlog_len)
      end;
      true
    end

  let drain (_ : store) (s : t) =
    match s.batcher with Some b -> Batcher.flush_all b | None -> ()

  let id (s : t) = s.ses_id
  let client (s : t) = s.ses_client
  let window (s : t) = s.window
  let in_flight (s : t) = s.in_flight
  let queued (s : t) = s.backlog_len
  let submitted (s : t) = s.submitted
  let completed (s : t) = s.completed
  let shed (s : t) = s.shed
  let peak_queue (s : t) = s.peak_backlog
end

(* One op through a fresh window-1, unbatched session — the same code
   path, op ids, RNG draws and events as before sessions existed. *)
let read t ~client ~key =
  let s = Session.create t ~client () in
  ignore (Session.submit t s (Get { key }) : bool)

let write t ~client ~key ~value =
  let s = Session.create t ~client () in
  ignore (Session.submit t s (Put { key; value }) : bool)

let on_version_rep t ~node op_id ~version ~value =
  match Hashtbl.find_opt t.ops op_id with
  | None -> ()
  | Some op ->
      (match op.phase with
      | Reading r ->
          (* Accept one reply per targeted replica: the originally
             selected quorum plus any hedge backups.  With hedging off
             [targets]/[acked] track [waiting_for] exactly, so the
             guard below is the historical membership test. *)
          if Bitset.mem r.targets node && not (Bitset.mem r.acked node)
          then begin
            record_latency t ~peer:node (Engine.now t.engine -. op.last_send);
            Bitset.add r.acked node;
            if Bitset.mem r.waiting_for node then
              Bitset.remove r.waiting_for node;
            if version > fst r.best then r.best <- (version, value);
            let complete =
              if t.routing.hedge then
                (read_system_for t op.key).Quorum.System.avail r.acked
              else Bitset.is_empty r.waiting_for
            in
            if complete then begin
              match op.kind with
              | Read_op -> finish t op (`Read_done r.best)
              | Write_op v ->
                  (* Version phase done; install on a write quorum. *)
                  let live = Failure_detector.view t.fd ~node:op.client in
                  (match
                     (write_system_for t op.key).Quorum.System.select
                       (Engine.rng t.engine) ~live
                   with
                  | None ->
                      Hashtbl.remove t.ops op.id;
                      Engine.cancel t.engine op.attempt_timer;
                      let sp = spans t in
                      let now = Engine.now t.engine in
                      if op.attempt_span >= 0 then
                        Span.finish sp ~time:now
                          ~status:(Span.Error "unavailable") op.attempt_span;
                      Span.finish sp ~time:now
                        ~status:(Span.Error "unavailable") op.span;
                      mark_unavailable t;
                      session_completed t op Unavailable
                  | Some wq ->
                      let version = fst r.best + 1 in
                      op.write_version <- version;
                      op.phase <-
                        Writing
                          {
                            waiting_for = Bitset.copy wq;
                            targets = wq;
                            acked = Bitset.create (universe t);
                          };
                      op.last_send <- Engine.now t.engine;
                      Bitset.iter
                        (fun j ->
                          emit t op ~dst:j
                            (Write_req
                               { op = op.id; key = op.key; version; value = v }))
                        wq;
                      arm_hedge t op wq)
            end
          end
      | Writing _ -> ())

let on_write_ack t op_id ~node =
  match Hashtbl.find_opt t.ops op_id with
  | None -> ()
  | Some op ->
      (match op.phase with
      | Writing w ->
          if Bitset.mem w.targets node && not (Bitset.mem w.acked node)
          then begin
            record_latency t ~peer:node
              (Engine.now t.engine -. op.last_send);
            Bitset.add w.acked node;
            if Bitset.mem w.waiting_for node then
              Bitset.remove w.waiting_for node;
            let complete =
              if t.routing.hedge then
                (write_system_for t op.key).Quorum.System.avail w.acked
              else Bitset.is_empty w.waiting_for
            in
            if complete then finish t op (`Write_done op.write_version)
          end
      | Reading _ -> ())

(* The hedge timer fired for an attempt that is still the current one:
   every member still unheard-from gets its request duplicated to a
   distinct backup replica drawn from the client's unsuspected view.
   Replicas are idempotent (max-version merge, acked-set dedup at the
   client), so duplicates cost messages, never safety. *)
let on_hedge t op_id =
  match Hashtbl.find_opt t.ops op_id with
  | Some op when (not op.done_) && op.hedge_armed = op.deadline ->
      let waiting, targets =
        match op.phase with
        | Reading r -> (r.waiting_for, r.targets)
        | Writing w -> (w.waiting_for, w.targets)
      in
      if not (Bitset.is_empty waiting) then begin
        let view = Failure_detector.view t.fd ~node:op.client in
        let n = universe t in
        let payload () =
          match (op.phase, op.kind) with
          | Reading _, _ -> Version_req { op = op.id; key = op.key }
          | Writing _, Write_op v ->
              Write_req
                {
                  op = op.id;
                  key = op.key;
                  version = op.write_version;
                  value = v;
                }
          | Writing _, Read_op -> assert false
        in
        let from = ref 0 in
        Bitset.iter
          (fun _straggler ->
            let rec find j =
              if j >= n then None
              else if Bitset.mem view j && not (Bitset.mem targets j) then
                Some j
              else find (j + 1)
            in
            match find !from with
            | None -> ()
            | Some b ->
                from := b + 1;
                Bitset.add targets b;
                t.hedges <- t.hedges + 1;
                Metrics.incr t.ins.st_hedges;
                rsend t ~src:op.client ~dst:b (payload ()))
          waiting
      end
  | Some _ | None -> ()

(* --- Re-join protocol ---------------------------------------------- *)

(* Merge a (key, version, value) record into a replica table, newest
   version wins. *)
let merge_record table (key, version, value) =
  match Hashtbl.find_opt table key with
  | Some (v0, _) when v0 >= version -> ()
  | Some _ | None -> Hashtbl.replace table key (version, value)

(* The quorum system a recoverer syncs against: its own shard's read
   system when sharded ([None] for a spare outside every shard — no
   quorum ever includes it, so there is nothing to re-establish). *)
let rejoin_read_system t ~node =
  match t.router with
  | None -> Some t.read_system
  | Some r -> (
      match Shard_router.shard_of_node r ~node with
      | Some shard -> Some (Shard_router.shard_read_system r ~shard)
      | None -> None)

(* An amnesiac recoverer refuses to serve until it has pulled the
   state of a full read quorum: its replayed durable log already
   covers everything it ever acknowledged (write-ahead), but the sync
   is what re-establishes freshness before the replica can again count
   toward quorum intersection. *)
let rec start_rejoin t ~node =
  let engine = t.engine in
  t.rejoining.(node) <- true;
  match rejoin_read_system t ~node with
  | None ->
      (* A spare under sharding: no quorum contains it, nothing to
         sync. *)
      t.rejoining.(node) <- false
  | Some sys -> (
      let live = Failure_detector.view t.fd ~node in
      match sys.Quorum.System.select (Engine.rng engine) ~live with
      | None ->
          (* No sync quorum in view: retry once the detector settles.
             Background, so a hopeless rejoin never keeps a run alive. *)
          Engine.schedule engine ~background:true
            ~time:(Engine.now engine +. Failure_detector.timeout t.fd)
            (fun () ->
              if Engine.is_live engine node && t.rejoining.(node) then
                start_rejoin t ~node)
      | Some q ->
          let sync_id = t.next_sync in
          t.next_sync <- sync_id + 1;
          t.syncs.(node) <-
            Some
              {
                sync_id;
                sync_waiting = Bitset.copy q;
                sync_acc = Hashtbl.create 16;
              };
          Bitset.iter
            (fun j -> rsend t ~src:node ~dst:j (Sync_req { sync = sync_id }))
            q)

let on_sync_rep t ~node ~src ~sync entries =
  match t.syncs.(node) with
  | Some s when s.sync_id = sync && Bitset.mem s.sync_waiting src ->
      Bitset.remove s.sync_waiting src;
      List.iter (merge_record s.sync_acc) entries;
      if Bitset.is_empty s.sync_waiting then begin
        Hashtbl.iter
          (fun key (version, value) ->
            merge_record t.replicas.(node) (key, version, value))
          s.sync_acc;
        t.syncs.(node) <- None;
        t.rejoining.(node) <- false;
        t.rejoins <- t.rejoins + 1;
        Metrics.incr t.ins.st_rejoins;
        Obs.Trace.record
          (Obs.trace (Engine.obs t.engine))
          ~time:(Engine.now t.engine)
          ~node ~peer:(-1) ~msg_id:(-1) ~span:(-1) ~label:"store.rejoin"
          Obs.Trace.Note
      end
  | Some _ | None -> ()

(* A rejoining replica nacked the request: fail the attempt over to a
   fresh quorum, but only after a beat (the rejoin usually completes
   within a round trip) and only if no other fail-over superseded the
   attempt meanwhile (the deadline identifies the attempt). *)
let on_recovering t ~node ~src op_id =
  match Hashtbl.find_opt t.ops op_id with
  | Some op when not op.done_ ->
      let relevant =
        match op.phase with
        | Reading r -> Bitset.mem r.waiting_for src
        | Writing w -> Bitset.mem w.waiting_for src
      in
      ignore node;
      if relevant then begin
        let engine = t.engine in
        let attempt = op.deadline in
        Engine.schedule engine
          ~time:(Engine.now engine +. 1.0)
          (fun () ->
            match Hashtbl.find_opt t.ops op_id with
            | Some op when (not op.done_) && op.deadline = attempt ->
                attempt_failed t op
            | Some _ | None -> ())
      end
  | Some _ | None -> ()

(* The rpc layer gave up reaching a quorum member: the attempt can
   never complete, so fail it over right away instead of waiting for
   the attempt timeout — but only if that member is still part of the
   current attempt (dead letters for superseded attempts are noise). *)
let rec on_dead_letter t ~src ~dst payload =
  let relevant op =
    match (payload, op.phase) with
    | Version_req _, Reading r -> Bitset.mem r.waiting_for dst
    | Write_req _, Writing w -> Bitset.mem w.waiting_for dst
    | _ -> false
  in
  match payload with
  | Version_req { op = op_id; _ } | Write_req { op = op_id; _ } -> (
      match Hashtbl.find_opt t.ops op_id with
      | Some op when (not op.done_) && relevant op -> attempt_failed t op
      | Some _ | None -> ())
  | Batch_req { reqs } ->
      (* The whole batch missed the member: every contained request
         fails over on its own. *)
      List.iter (fun r -> on_dead_letter t ~src ~dst r) reqs
  | Sync_req { sync } -> (
      (* A sync-quorum member is unreachable: the rejoin cannot
         complete on this quorum — reselect. *)
      match t.syncs.(src) with
      | Some s when s.sync_id = sync && Bitset.mem s.sync_waiting dst ->
          t.syncs.(src) <- None;
          if Engine.is_live t.engine src then start_rejoin t ~node:src
      | Some _ | None -> ())
  | Version_rep _ | Write_ack _ | Recovering _ | Sync_rep _ | Batch_rep _ ->
      (* A reply we could not push back: the client's own timeout and
         retry machinery covers it (and a lost sync reply stalls the
         rejoin until its own dead letter fires). *)
      ()

let refuse t ~node ~src op =
  t.refusals <- t.refusals + 1;
  Metrics.incr t.ins.st_refusals;
  rsend t ~src:node ~dst:src (Recovering { op })

(* Replica service-time model: each request (or batch) occupies the
   node's processor for a configured cost, serialized behind whatever
   it is already chewing on.  With the default zero-cost model the
   dispatch is synchronous — exactly the historical behaviour, no
   extra events.  This is what turns quorum-size differences into
   observable throughput: a node in every quorum saturates first. *)
let with_service t ~node ~k process =
  let engine = t.engine in
  let cost =
    t.serv.per_batch +. (float_of_int k *. t.serv.per_req)
  in
  let now = Engine.now engine in
  if cost = 0.0 && t.busy_until.(node) <= now then process ~now
  else begin
    let start = Float.max now t.busy_until.(node) in
    let finish = start +. cost in
    t.busy_until.(node) <- finish;
    let crashes = Engine.crashes engine ~node in
    Engine.schedule engine ~time:finish (fun () ->
        if Engine.crashes engine ~node = crashes && Engine.is_live engine node
        then process ~now:finish)
  end

(* Serve one version request against the replica table (the caller has
   already cleared the rejoining gate). *)
let version_rep t ~node (op : int) key =
  let version, value =
    match Hashtbl.find_opt t.replicas.(node) key with
    | Some vv -> vv
    | None -> (0, 0)
  in
  Version_rep { op; version; value }

(* Process a replica-side batch: version requests answer immediately,
   writes merge into the table and share one durable flush — one
   [append_batch], one fsync wait, one batched ack. *)
let process_batch t ~node ~src ~now reqs =
  if t.rejoining.(node) then begin
    let reps =
      List.filter_map
        (function
          | Version_req { op; _ } | Write_req { op; _ } ->
              t.refusals <- t.refusals + 1;
              Metrics.incr t.ins.st_refusals;
              Some (Recovering { op })
          | _ -> None)
        reqs
    in
    if reps <> [] then rsend t ~src:node ~dst:src (Batch_rep { reps })
  end
  else begin
    let instant = ref [] and acks = ref [] and records = ref [] in
    List.iter
      (function
        | Version_req { op; key } ->
            instant := version_rep t ~node op key :: !instant
        | Write_req { op; key; version; value } ->
            merge_record t.replicas.(node) (key, version, value);
            records := (key, version, value) :: !records;
            acks := Write_ack { op } :: !acks
        | _ -> ())
      reqs;
    (match List.rev !records with
    | [] -> ()
    | records ->
        let durable_at =
          Durable.append_batch t.dur ~node ~now records
        in
        if durable_at <= now then instant := !acks @ !instant
        else
          let reps = List.rev !acks in
          Durable.send_when_durable t.engine ~node ~durable_at
            ~span:"store.fsync" (fun () ->
              rsend t ~src:node ~dst:src (Batch_rep { reps })));
    match List.rev !instant with
    | [] -> ()
    | reps -> rsend t ~src:node ~dst:src (Batch_rep { reps })
  end

let rec dispatch_app t ~node ~src = function
  | Version_req { op; key } ->
      with_service t ~node ~k:1 (fun ~now:_ ->
          if t.rejoining.(node) then refuse t ~node ~src op
          else rsend t ~src:node ~dst:src (version_rep t ~node op key))
  | Version_rep { op; version; value } ->
      on_version_rep t ~node:src op ~version ~value
  | Write_req { op; key; version; value } ->
      with_service t ~node ~k:1 (fun ~now ->
          if t.rejoining.(node) then refuse t ~node ~src op
          else begin
            merge_record t.replicas.(node) (key, version, value);
            (* Write-ahead: the record is logged unconditionally and the
               ack leaves only once its fsync completes, so an acked write
               can never be lost to a crash.  With zero fsync latency the
               ack is synchronous, exactly the old stable-storage model. *)
            let durable_at =
              Durable.append t.dur ~node ~now (key, version, value)
            in
            if durable_at <= now then
              rsend t ~src:node ~dst:src (Write_ack { op })
            else
              Durable.send_when_durable t.engine ~node ~durable_at
                ~span:"store.fsync" (fun () ->
                  rsend t ~src:node ~dst:src (Write_ack { op }))
          end)
  | Write_ack { op } -> on_write_ack t op ~node:src
  | Recovering { op } -> on_recovering t ~node ~src op
  | Sync_req { sync } ->
      (* Answered even while rejoining, from the replayed durable
         state: write-ahead acking means the log already covers
         everything this replica ever acknowledged, so this cannot
         launder stale state — and refusing would deadlock a majority
         amnesia restart (no sync quorum could ever assemble). *)
      let entries =
        Hashtbl.fold
          (fun key (version, value) acc -> (key, version, value) :: acc)
          t.replicas.(node) []
      in
      rsend t ~src:node ~dst:src (Sync_rep { sync; entries })
  | Sync_rep { sync; entries } -> on_sync_rep t ~node ~src ~sync entries
  | Batch_req { reqs } ->
      with_service t ~node ~k:(List.length reqs) (fun ~now ->
          process_batch t ~node ~src ~now reqs)
  | Batch_rep { reps } ->
      (* Unpack at the client: each inner reply dispatches exactly as
         if it had arrived bare. *)
      List.iter (fun rep -> dispatch_app t ~node ~src rep) reps

let handlers t : msg Engine.handlers =
  (* One delivery closure per node, built once. *)
  let deliver =
    Array.init (universe t) (fun node ->
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
        else if tag >= hedge_offset then on_hedge t (tag - hedge_offset)
        else
          (* Ending or relaunching an op cancels its attempt timer, so a
             fire is always the current attempt's timeout. *)
          match Hashtbl.find_opt t.ops tag with
          | Some op -> attempt_failed t op
          | None -> ());
    on_crash =
      (fun engine ~node ->
        Rpc.on_crash t.rpc ~node;
        t.busy_until.(node) <- 0.0;
        Durable.crash t.dur ~node ~now:(Engine.now engine);
        t.syncs.(node) <- None;
        (* A crashed client's timers are dropped by the engine, so its
           in-flight operations would leak: abort them here. *)
        let doomed =
          Hashtbl.fold
            (fun _ op acc -> if op.client = node then op :: acc else acc)
            t.ops []
        in
        List.iter (fun op -> finish t op `Timeout) doomed);
    on_recover =
      (fun engine ~node ~amnesia ->
        Failure_detector.on_recover t.fd ~node;
        if amnesia then begin
          (* The in-memory table is gone: rebuild the durable prefix
             from the log, then refuse to serve until a read-quorum
             sync re-establishes freshness. *)
          Hashtbl.reset t.replicas.(node);
          List.iter
            (merge_record t.replicas.(node))
            (Durable.replay t.dur ~node ~now:(Engine.now engine));
          start_rejoin t ~node
        end
        else if t.rejoining.(node) then
          (* Crashed mid-rejoin with memory intact: the crash canceled
             the sync round, start a fresh one. *)
          start_rejoin t ~node);
  }

let make_instruments m =
  let latency =
    Metrics.histogram m
      ~help:"operation latency (simulated time), by op=read|write"
      "store.op_latency"
  in
  {
    st_reads_ok = Metrics.counter m ~help:"completed reads" "store.reads_ok";
    st_writes_ok = Metrics.counter m ~help:"completed writes" "store.writes_ok";
    st_unavailable =
      Metrics.counter m ~help:"operations refused for lack of a quorum"
        "store.unavailable";
    st_timeouts =
      Metrics.counter m ~help:"operations failed after all retries"
        "store.timeouts";
    st_retries =
      Metrics.counter m ~help:"attempts re-launched on a fresh quorum"
        "store.retries";
    st_rejoins =
      Metrics.counter m ~help:"completed amnesiac re-join syncs"
        "store.rejoins";
    st_refusals =
      Metrics.counter m
        ~help:"requests nacked by a replica still re-joining"
        "store.rejoin_refusals";
    st_latency = latency;
    st_read_latency = Metrics.Handle.histogram latency [ ("op", "read") ];
    st_write_latency = Metrics.Handle.histogram latency [ ("op", "write") ];
    st_sessions =
      Metrics.counter m ~help:"client sessions opened" "store.sessions";
    st_submitted =
      Metrics.counter m ~help:"ops submitted through sessions, by client"
        "store.session_submitted";
    st_shed =
      Metrics.counter m
        ~help:"submissions shed by a full session backlog, by client"
        "store.session_shed";
    st_batches =
      Metrics.counter m ~help:"Batch_req envelopes sent" "store.batches";
    st_batched =
      Metrics.counter m ~help:"requests carried inside Batch_req"
        "store.batched_ops";
    st_backlog_peak =
      Metrics.gauge m
        ~help:"high-water session backlog depth, by client"
        "store.session_backlog_peak";
    st_hedges =
      Metrics.counter m ~help:"hedge requests sent to backup replicas"
        "store.hedges";
    st_degraded_writes =
      Metrics.counter m
        ~help:"writes refused fast by the degraded read-only mode"
        "store.degraded_writes";
    st_degraded =
      Metrics.gauge m ~help:"1 while in degraded read-only mode"
        "store.degraded";
  }

let of_config engine ?(config = Client_config.default) ?router
    ?(service = no_service) ~read_system ~write_system () =
  let n = read_system.Quorum.System.n in
  if write_system.Quorum.System.n <> n then
    invalid_arg "Replicated_store.of_config: universe mismatch";
  (match router with
  | Some r when Shard_router.universe r <> n ->
      invalid_arg "Replicated_store.of_config: router universe mismatch"
  | Some _ | None -> ());
  if Engine.nodes engine <> n then
    invalid_arg "Replicated_store.of_config: engine size mismatch";
  let obs = Engine.obs engine in
  let ins = make_instruments (Obs.metrics obs) in
  let dur = Durable.create ~obs ~nodes:n config.Client_config.durability in
  let rpc = Rpc.create engine ~timeout:Client_config.rpc_timeout () in
  let fd =
    Failure_detector.create engine
      ~period:config.Client_config.fd.Client_config.period
      ~timeout:config.Client_config.fd.Client_config.timeout
      ~mode:(Client_config.fd_mode config) ()
  in
  let t =
    {
      read_system;
      write_system;
      router;
      serv = service;
      timeout = config.Client_config.timeout;
      retries = config.Client_config.retries;
      routing = config.Client_config.routing;
      engine;
      rpc;
      fd;
      dur;
      ops = Hashtbl.create 64;
      next_op = 0;
      next_session = 0;
      replicas = Array.init n (fun _ -> Hashtbl.create 16);
      rejoining = Array.make n false;
      busy_until = Array.make n 0.0;
      syncs = Array.make n None;
      next_sync = 0;
      reads_ok = 0;
      writes_ok = 0;
      unavailable = 0;
      timeouts = 0;
      retried = 0;
      rejoins = 0;
      refusals = 0;
      batches = 0;
      batched_ops = 0;
      shed = 0;
      hedges = 0;
      degraded_writes = 0;
      degraded = false;
      lat_ring = Array.init n (fun _ -> Array.make 32 0.0);
      lat_len = Array.make n 0;
      lat_pos = Array.make n 0;
      history = [];
      ins;
    }
  in
  Rpc.set_dead_letter_handler rpc (fun ~src ~dst payload ->
      on_dead_letter t ~src ~dst payload);
  Engine.set_handlers engine (handlers t);
  t
