module Rng = Quorum.Rng
module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Prof = Obs.Prof

type 'a msg = Data of { seq : int; payload : 'a } | Ack of { seq : int }

type instruments = {
  i_sends : Metrics.counter;
  i_retransmits : Metrics.counter Metrics.Handle.t array;  (** [node=i] *)
  i_duplicates : Metrics.counter;
  i_dead : Metrics.counter Metrics.Handle.t array;  (** [node=i] *)
}

(* Timer-tag namespace: tag = -seq - 2, so every rpc tag is <= -2.
   Tag -1 belongs to Failure_detector; protocol tags are >= 0. *)
let tag_of_seq seq = -seq - 2
let seq_of_tag tag = -tag - 2
let owns_tag tag = tag <= -2

type 'a inflight = {
  src : int;
  dst : int;
  payload : 'a;
  mutable attempts : int;  (** transmissions performed so far *)
  mutable rto : float;  (** delay before the next retransmission *)
}

type 'a t = {
  timeout : float;
  backoff : float;
  jitter : float;
  cap : float;
  max_attempts : int;
  engine : 'a msg Engine.t;
  ins : instruments;
  prof : Prof.t;
  tracing : bool;  (** the engine's trace ring has capacity *)
  mutable next_seq : int;
  inflight : (int, 'a inflight) Hashtbl.t;  (** seq -> record *)
  mutable seen : Bitset.t;  (** seqs already delivered *)
  mutable retransmissions : int;
  mutable duplicates : int;
  mutable dead : int;
  mutable on_dead_letter : src:int -> dst:int -> 'a -> unit;
}

let create engine ?(timeout = 2.0) ?(backoff = 1.6) ?(jitter = 0.3) ?cap
    ?(max_attempts = 6) () =
  if timeout <= 0.0 then invalid_arg "Rpc.create: timeout";
  if backoff < 1.0 then invalid_arg "Rpc.create: backoff";
  if jitter < 0.0 then invalid_arg "Rpc.create: jitter";
  let cap = match cap with Some c -> c | None -> 32.0 *. timeout in
  if cap < timeout then invalid_arg "Rpc.create: cap";
  if max_attempts < 1 then invalid_arg "Rpc.create: max_attempts";
  let obs = Engine.obs engine in
  let m = Obs.metrics obs in
  (* Retransmits and dead letters label by sender node. *)
  let per_node f =
    Array.init (Engine.nodes engine) (fun i ->
        Metrics.Handle.counter f [ ("node", string_of_int i) ])
  in
  {
    timeout;
    backoff;
    jitter;
    cap;
    max_attempts;
    engine;
    ins =
      {
        i_sends =
          Metrics.counter m ~help:"rpc sends (first transmissions)" "rpc.sends";
        i_retransmits =
          per_node
            (Metrics.counter m ~help:"rpc retransmissions, by sender node"
               "rpc.retransmits");
        i_duplicates =
          Metrics.counter m ~help:"duplicate deliveries suppressed"
            "rpc.duplicates_suppressed";
        i_dead =
          per_node
            (Metrics.counter m
               ~help:"messages abandoned after max_attempts, by sender node"
               "rpc.dead_letters");
      };
    prof = Obs.prof obs;
    tracing = Trace.capacity (Obs.trace obs) > 0;
    next_seq = 0;
    inflight = Hashtbl.create 64;
    seen = Bitset.create 256;
    retransmissions = 0;
    duplicates = 0;
    dead = 0;
    on_dead_letter = (fun ~src:_ ~dst:_ _ -> ());
  }

let set_dead_letter_handler t f = t.on_dead_letter <- f

(* Receiver-side dedup, grown on demand.  Seqs are dense from 0, so
   this stays one bit per rpc ever sent. *)
let already_seen t seq = seq < Bitset.capacity t.seen && Bitset.mem t.seen seq

let mark_seen t seq =
  let cap = Bitset.capacity t.seen in
  if seq >= cap then begin
    let grown = Bitset.create (max (seq + 1) (2 * cap)) in
    Bitset.iter (Bitset.add grown) t.seen;
    t.seen <- grown
  end;
  Bitset.add t.seen seq

let retransmissions t = t.retransmissions
let duplicates_suppressed t = t.duplicates
let dead_letters t = t.dead
let inflight_count t = Hashtbl.length t.inflight

let jittered t delay =
  if t.jitter = 0.0 then delay
  else delay *. (1.0 +. (t.jitter *. Rng.float (Engine.rng t.engine)))

(* Decorrelated jitter (the AWS "decorrelated" scheme): the next
   retransmission delay is drawn uniformly from [timeout, 3 * prev],
   clamped to [cap].  Consecutive retries de-synchronize instead of
   marching in lockstep, so a burst of senders cut off by the same
   fault does not produce a synchronized retransmit storm when the
   fault clears — which matters under churn, where a storm can stall a
   reconfiguration's seal round.  With [jitter = 0] the classic
   deterministic exponential backoff ([prev * backoff], capped) is
   kept, so jitter-free runs stay exactly reproducible across the
   change. *)
let next_backoff t rng ~prev =
  if t.jitter = 0.0 then min t.cap (prev *. t.backoff)
  else
    let hi = 3.0 *. prev in
    min t.cap (t.timeout +. (Rng.float rng *. (hi -. t.timeout)))

let send t ~src ~dst payload =
  Prof.enter t.prof Prof.Rpc;
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.inflight seq
    { src; dst; payload; attempts = 1; rto = t.timeout };
  Metrics.incr t.ins.i_sends;
  Engine.send t.engine ~src ~dst (Data { seq; payload });
  Engine.set_timer t.engine ~node:src ~delay:(jittered t t.timeout)
    ~tag:(tag_of_seq seq);
  Prof.leave t.prof Prof.Rpc

let on_message t ~node ~src msg ~deliver =
  match msg with
  | Data { seq; payload } ->
      Prof.enter t.prof Prof.Rpc;
      (* Always (re-)ack: the previous ack may have been lost. *)
      Engine.send t.engine ~src:node ~dst:src (Ack { seq });
      if already_seen t seq then begin
        t.duplicates <- t.duplicates + 1;
        Metrics.incr t.ins.i_duplicates;
        Prof.leave t.prof Prof.Rpc
      end
      else begin
        mark_seen t seq;
        (* Leave before handing off: the protocol's work must charge to
           the dispatch category, not to rpc bookkeeping. *)
        Prof.leave t.prof Prof.Rpc;
        deliver ~src payload
      end
  | Ack { seq } ->
      Prof.enter t.prof Prof.Rpc;
      Hashtbl.remove t.inflight seq;
      Prof.leave t.prof Prof.Rpc

let on_timer t ~node ~tag =
  if not (owns_tag tag) then false
  else begin
    Prof.enter t.prof Prof.Rpc;
    let seq = seq_of_tag tag in
    (match Hashtbl.find_opt t.inflight seq with
    | None -> ()  (* acked (or the sender crashed) in the meantime *)
    | Some m ->
        if m.attempts >= t.max_attempts then begin
          Hashtbl.remove t.inflight seq;
          t.dead <- t.dead + 1;
          Metrics.Handle.incr t.ins.i_dead.(m.src);
          if t.tracing then
            Trace.record
              (Obs.trace (Engine.obs t.engine))
              ~time:(Engine.now t.engine) ~node:m.src ~peer:m.dst
              ~span:(Engine.span_ctx t.engine) ~label:"rpc.dead_letter"
              Trace.Note;
          t.on_dead_letter ~src:m.src ~dst:m.dst m.payload
        end
        else begin
          m.attempts <- m.attempts + 1;
          m.rto <- next_backoff t (Engine.rng t.engine) ~prev:m.rto;
          t.retransmissions <- t.retransmissions + 1;
          Metrics.Handle.incr t.ins.i_retransmits.(node);
          (* The Note marks the retransmission instant inside the op's
             span window, which is what lets the critical-path analysis
             attribute the ensuing wait to "retransmit", not "queueing". *)
          if t.tracing then
            Trace.record
              (Obs.trace (Engine.obs t.engine))
              ~time:(Engine.now t.engine) ~node ~peer:m.dst
              ~span:(Engine.span_ctx t.engine) ~label:"rpc.retransmit"
              Trace.Note;
          Engine.send t.engine ~src:node ~dst:m.dst
            (Data { seq; payload = m.payload });
          Engine.set_timer t.engine ~node ~delay:m.rto ~tag
        end);
    Prof.leave t.prof Prof.Rpc;
    true
  end

let on_crash t ~node =
  (* Volatile sender state: a crashed node forgets its unacked sends.
     (Receiver-side dedup state is kept, modelling per-channel sequence
     numbers on stable storage.) *)
  let doomed =
    Hashtbl.fold
      (fun seq m acc -> if m.src = node then seq :: acc else acc)
      t.inflight []
  in
  List.iter (Hashtbl.remove t.inflight) doomed
