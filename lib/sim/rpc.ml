module Rng = Quorum.Rng
module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Prof = Obs.Prof

type 'a msg =
  | Data of { seq : int; slot : int; payload : 'a }
  | Ack of { seq : int; slot : int }

type instruments = {
  i_sends : Metrics.counter;
  i_retransmits : Metrics.counter Metrics.Handle.t array;  (** [node=i] *)
  i_duplicates : Metrics.counter;
  i_dead : Metrics.counter Metrics.Handle.t array;  (** [node=i] *)
}

(* The first retransmission waits [timeout * (1 + jitter * u)]; later
   delays are capped at [cap_timeouts * timeout]. *)
let jitter = 0.3
let cap_timeouts = 32.0

(* What a free slot's envelope holds, so the pool keeps no payload
   alive. *)
let vacant = Ack { seq = -1; slot = -1 }

(* Unacked sends live in a pool of slots, one column per field; the
   slot rides in the envelope and is bound into the slot's retransmit
   callback, so an ack or a timer finds its send in O(1).  A free slot
   has seq -1 and is threaded through [dsts] as a free list. *)
type 'a t = {
  timeout : float;
  cap : float;
  max_attempts : int;
  engine : 'a msg Engine.t;
  ring : Trace.t;
  ins : instruments;
  prof : Prof.t;
  tracing : bool;  (** the engine's trace ring has capacity *)
  mutable next_seq : int;
  mutable seqs : int array;  (** -1 = free slot *)
  mutable srcs : int array;
  mutable dsts : int array;  (** next free slot, for a free slot *)
  mutable attempts : int array;  (** transmissions performed so far *)
  mutable rtos : Float.Array.t;  (** delay before the next retransmission *)
  mutable timers : int array;  (** retransmit timer's {!Engine.timer} handle *)
  mutable retransmit : (unit -> unit) array;
      (** the slot's retransmit callback, built once when the pool grows *)
  mutable envs : 'a msg array;  (** the [Data] envelope, resent as is *)
  mutable free : int;  (** head of the free list; -1 = none *)
  mutable live : int;  (** unacked sends *)
  mutable seen : Bitset.t;  (** seqs already delivered *)
  mutable retransmissions : int;
  mutable duplicates : int;
  mutable dead : int;
  mutable on_dead_letter : src:int -> dst:int -> 'a -> unit;
}

let create engine ?(timeout = 2.0) ?(max_attempts = 6) () =
  if timeout <= 0.0 then invalid_arg "Rpc.create: timeout";
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
    cap = cap_timeouts *. timeout;
    max_attempts;
    engine;
    ring = Obs.trace obs;
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
    seqs = [||];
    srcs = [||];
    dsts = [||];
    attempts = [||];
    rtos = Float.Array.create 0;
    timers = [||];
    retransmit = [||];
    envs = [||];
    free = -1;
    live = 0;
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
let inflight_count t = t.live

(* --- Pool and retransmission ------------------------------------------ *)

let release t s =
  t.seqs.(s) <- -1;
  t.envs.(s) <- vacant;
  t.dsts.(s) <- t.free;
  t.free <- s;
  t.live <- t.live - 1

let jittered t =
  t.timeout *. (1.0 +. (jitter *. Rng.float (Engine.rng t.engine)))

(* Decorrelated jitter (the AWS "decorrelated" scheme): the next
   retransmission delay is drawn uniformly from [timeout, 3 * prev],
   clamped to [cap].  Consecutive retries de-synchronize instead of
   marching in lockstep, so a burst of senders cut off by the same
   fault does not produce a synchronized retransmit storm when the
   fault clears — which matters under churn, where a storm can stall a
   reconfiguration's seal round. *)
let next_backoff t rng ~prev =
  let hi = 3.0 *. prev in
  min t.cap (t.timeout +. (Rng.float rng *. (hi -. t.timeout)))

(* The retransmit timer of [slot] fired: resend, or dead-letter the
   send after [max_attempts].  Acks and crashes cancel the timer of the
   send they end, so a timer that fires always finds its send in the
   slot. *)
let expire t slot =
  Prof.enter t.prof Prof.Rpc;
  let node = t.srcs.(slot) and dst = t.dsts.(slot) in
  if t.attempts.(slot) >= t.max_attempts then begin
    let env = t.envs.(slot) in
    release t slot;
    t.dead <- t.dead + 1;
    Metrics.Handle.incr t.ins.i_dead.(node);
    if t.tracing then
      Trace.record t.ring ~time:(Engine.now t.engine) ~node ~peer:dst
        ~msg_id:(-1) ~span:(Engine.span_ctx t.engine)
        ~label:"rpc.dead_letter" Trace.Note;
    match env with
    | Data { payload; _ } -> t.on_dead_letter ~src:node ~dst payload
    | Ack _ -> assert false
  end
  else begin
    t.attempts.(slot) <- t.attempts.(slot) + 1;
    let rto =
      next_backoff t (Engine.rng t.engine) ~prev:(Float.Array.get t.rtos slot)
    in
    Float.Array.set t.rtos slot rto;
    t.retransmissions <- t.retransmissions + 1;
    Metrics.Handle.incr t.ins.i_retransmits.(node);
    (* The Note marks the retransmission instant inside the op's
       span window, which is what lets the critical-path analysis
       attribute the ensuing wait to "retransmit", not "queueing". *)
    if t.tracing then
      Trace.record t.ring ~time:(Engine.now t.engine) ~node ~peer:dst
        ~msg_id:(-1) ~span:(Engine.span_ctx t.engine)
        ~label:"rpc.retransmit" Trace.Note;
    Engine.send t.engine ~src:node ~dst t.envs.(slot);
    t.timers.(slot) <-
      Engine.timer t.engine ~node ~delay:rto t.retransmit.(slot)
  end;
  Prof.leave t.prof Prof.Rpc

(* Double every column and thread the new slots onto the empty free
   list, lowest first.  Each new slot gets its retransmit callback
   here, so arming a timer allocates nothing. *)
let grow t =
  let cap = Array.length t.seqs in
  let cap' = max 64 (2 * cap) in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.seqs <- extend t.seqs (-1);
  t.srcs <- extend t.srcs 0;
  t.dsts <- extend t.dsts 0;
  t.attempts <- extend t.attempts 0;
  let rtos = Float.Array.make cap' 0.0 in
  Float.Array.blit t.rtos 0 rtos 0 cap;
  t.rtos <- rtos;
  t.timers <- extend t.timers (-1);
  t.retransmit <- extend t.retransmit ignore;
  for s = cap to cap' - 1 do
    t.retransmit.(s) <- (fun () -> expire t s)
  done;
  t.envs <- extend t.envs vacant;
  for s = cap' - 1 downto cap do
    t.dsts.(s) <- t.free;
    t.free <- s
  done

let alloc t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.dsts.(s);
  t.live <- t.live + 1;
  s

(* --- Protocol ---------------------------------------------------------- *)

let send t ~src ~dst payload =
  Prof.enter t.prof Prof.Rpc;
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let slot = alloc t in
  let env = Data { seq; slot; payload } in
  t.seqs.(slot) <- seq;
  t.srcs.(slot) <- src;
  t.dsts.(slot) <- dst;
  t.attempts.(slot) <- 1;
  Float.Array.set t.rtos slot t.timeout;
  t.envs.(slot) <- env;
  Metrics.incr t.ins.i_sends;
  Engine.send t.engine ~src ~dst env;
  t.timers.(slot) <-
    Engine.timer t.engine ~node:src ~delay:(jittered t) t.retransmit.(slot);
  Prof.leave t.prof Prof.Rpc

let on_message t ~node ~src msg ~deliver =
  match msg with
  | Data { seq; slot; payload } ->
      Prof.enter t.prof Prof.Rpc;
      (* Always (re-)ack: the previous ack may have been lost. *)
      Engine.send t.engine ~src:node ~dst:src (Ack { seq; slot });
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
  | Ack { seq; slot } ->
      Prof.enter t.prof Prof.Rpc;
      (* A duplicate ack, or one for a send its crashed sender forgot,
         finds the slot free or holding a newer send. *)
      if t.seqs.(slot) = seq then begin
        Engine.cancel t.engine t.timers.(slot);
        release t slot
      end;
      Prof.leave t.prof Prof.Rpc

let on_crash t ~node =
  (* Volatile sender state: a crashed node forgets its unacked sends.
     (Receiver-side dedup state is kept, modelling per-channel sequence
     numbers on stable storage.)  A send issued while the node was down
     may hold the handle of a timer that already fired; [cancel]
     ignores it. *)
  for s = 0 to Array.length t.seqs - 1 do
    if t.seqs.(s) >= 0 && t.srcs.(s) = node then begin
      Engine.cancel t.engine t.timers.(s);
      release t s
    end
  done
