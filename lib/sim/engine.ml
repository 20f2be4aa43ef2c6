module Rng = Quorum.Rng
module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Prof = Obs.Prof

(* Event kinds.  A slot's [meta] packs the kind with the background flag
   in bit 0: [meta = kind lsl 1 lor background]. *)
let k_deliver = 0
let k_timer = 1
let k_crash = 2
let k_recover = 3
let k_thunk = 4
let no_thunk () = ()

(* Heartbeats not yet taken by their receiver, sorted by [(time, seq)]:
   positions [head, size) of parallel arrays of arrival time, reserved
   seq and source. *)
type inbox = {
  mutable i_times : Float.Array.t;
  mutable i_seqs : int array;
  mutable i_srcs : int array;
  mutable i_head : int;
  mutable i_size : int;
}

type beats = {
  mutable count : int;
  mutable times : Float.Array.t;
  mutable srcs : int array;
}

type 'msg handlers = {
  on_message : 'msg t -> node:int -> src:int -> 'msg -> unit;
  on_timer : 'msg t -> node:int -> tag:int -> unit;
  on_crash : 'msg t -> node:int -> unit;
  on_recover : 'msg t -> node:int -> amnesia:bool -> unit;
}

and instruments = {
  m_sent : Metrics.counter;
  m_background : Metrics.counter;
  m_delivered : Metrics.counter;
  m_drop_net : Metrics.counter Metrics.Handle.t;
  m_drop_dead : Metrics.counter Metrics.Handle.t;
  m_crashes : Metrics.counter;
  m_recover_amnesia : Metrics.counter Metrics.Handle.t;
  m_recover_plain : Metrics.counter Metrics.Handle.t;
}

(* The event queue is an arena of struct-of-arrays slots under a 4-ary
   min-heap of slot ids ordered by [(time, seq)]; freed slots are
   threaded through [a] as a free list, and [hpos] maps a queued slot
   to its heap position (-1 when not queued) so {!cancel} can remove
   it.  Per kind, [a]/[b] hold src/dst (deliver), node/tag (timer),
   node (crash) and node/amnesia (recover); [ctxs] is the span context
   the handler runs under — captured at send/arm/schedule time, -1 for
   background messages. *)
and 'msg t = {
  n : int;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable meta : int array;
  mutable a : int array;
  mutable b : int array;
  mutable uids : int array;  (** trace causality link; -1 = untraced *)
  mutable ctxs : int array;
  mutable msgs : 'msg array;  (** empty until the first send fills it *)
  mutable thunks : (unit -> unit) array;
  mutable heap : int array;  (** slot ids; the first [size] are queued *)
  mutable hpos : int array;  (** slot -> heap position; -1 = not queued *)
  mutable size : int;
  mutable free : int;  (** head of the free-slot list; -1 = none *)
  mutable next_seq : int;
  live : bool array;
  crash_counts : int array;  (** per node: crashes of a live node *)
  network : Network.t;
  lat : Float.Array.t;  (** one cell: the latency [Network.draw] wrote *)
  net_rng : Rng.t;
  proto_rng : Rng.t;
  mutable handlers : 'msg handlers;
  obs : Obs.t;
  ring : Trace.t;
  ins : instruments;
  prof : Prof.t;
  tracing : bool;  (** trace ring has capacity; guards record call sites *)
  mutable ctx : int;  (** ambient span context; -1 = none *)
  mutable next_uid : int;
  mutable time : float;
  mutable sent : int;
  mutable background_sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable dispatched : int;  (** events handed to [dispatch] *)
  mutable foreground : int;  (** queued events that keep [run] alive *)
  mutable budget_hits : int;
  mutable flips : int;  (** crash and recovery transitions *)
  (* The [(time, seq)] of the latest cancelled foreground event the
     dispatch loop has not passed yet ([ghost_seq = -1]: none).  Had it
     stayed queued it would have fired as a no-op and kept the run
     alive until then, so a drain stops there (see [run_status]). *)
  ghost_time : Float.Array.t;  (** one cell *)
  mutable ghost_seq : int;
  (* Heartbeats (see [beat_round]).  The dispatch position is the [(time,
     seq)] of the event being dispatched, or of the last one between
     runs; a heartbeat counts as arrived once the position has passed
     its own.  [down_*]/[up_*] hold each node's last crash and
     recovery position (-infinity: never). *)
  inboxes : inbox array;  (** per receiver *)
  taken : beats;  (** what [take_beats] returned last *)
  pos_time : Float.Array.t;  (** one cell: the position's time *)
  mutable pos_seq : int;
  down_time : Float.Array.t;
  down_seq : int array;
  up_time : Float.Array.t;
  up_seq : int array;
}

type outcome = Drained | Reached_until | Budget_exhausted

let unset _ = invalid_arg "Engine: no handlers installed"

let no_handlers =
  {
    on_message = (fun t ~node:_ ~src:_ _ -> unset t);
    on_timer = (fun t ~node:_ ~tag:_ -> unset t);
    on_crash = (fun t ~node:_ -> unset t);
    on_recover = (fun t ~node:_ ~amnesia:_ -> unset t);
  }

let make_instruments m =
  let dropped =
    Metrics.counter m
      ~help:"messages lost in flight, by reason (net | dead_dst)"
      "sim.messages_dropped"
  and recoveries =
    Metrics.counter m ~help:"node recovery events" "sim.recoveries"
  in
  {
    m_sent =
      Metrics.counter m ~help:"foreground messages sent" "sim.messages_sent";
    m_background =
      Metrics.counter m ~help:"background messages sent (heartbeats...)"
        "sim.messages_background";
    m_delivered =
      Metrics.counter m ~help:"messages handed to on_message"
        "sim.messages_delivered";
    m_drop_net = Metrics.Handle.counter dropped [ ("reason", "net") ];
    m_drop_dead = Metrics.Handle.counter dropped [ ("reason", "dead_dst") ];
    m_crashes = Metrics.counter m ~help:"node crash events" "sim.crashes";
    m_recover_amnesia =
      Metrics.Handle.counter recoveries [ ("amnesia", "true") ];
    m_recover_plain =
      Metrics.Handle.counter recoveries [ ("amnesia", "false") ];
  }

let create ~seed ~nodes ?network ?obs () =
  if nodes <= 0 then invalid_arg "Engine.create: nodes";
  let root = Rng.create seed in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    n = nodes;
    times = Float.Array.create 0;
    seqs = [||];
    meta = [||];
    a = [||];
    b = [||];
    uids = [||];
    ctxs = [||];
    msgs = [||];
    thunks = [||];
    heap = [||];
    hpos = [||];
    size = 0;
    free = -1;
    next_seq = 0;
    live = Array.make nodes true;
    crash_counts = Array.make nodes 0;
    network = (match network with Some n -> n | None -> Network.create ());
    lat = Float.Array.make 1 0.0;
    net_rng = Rng.split root;
    proto_rng = Rng.split root;
    handlers = no_handlers;
    obs;
    ring = Obs.trace obs;
    ins = make_instruments (Obs.metrics obs);
    prof = Obs.prof obs;
    tracing = Trace.capacity (Obs.trace obs) > 0;
    ctx = -1;
    next_uid = 0;
    time = 0.0;
    sent = 0;
    background_sent = 0;
    delivered = 0;
    dropped = 0;
    dispatched = 0;
    foreground = 0;
    budget_hits = 0;
    flips = 0;
    ghost_time = Float.Array.make 1 0.0;
    ghost_seq = -1;
    inboxes =
      Array.init nodes (fun _ ->
          {
            i_times = Float.Array.create 0;
            i_seqs = [||];
            i_srcs = [||];
            i_head = 0;
            i_size = 0;
          });
    taken = { count = 0; times = Float.Array.create 0; srcs = [||] };
    pos_time = Float.Array.make 1 neg_infinity;
    pos_seq = -1;
    down_time = Float.Array.make nodes neg_infinity;
    down_seq = Array.make nodes (-1);
    up_time = Float.Array.make nodes neg_infinity;
    up_seq = Array.make nodes (-1);
  }

let set_handlers t handlers = t.handlers <- handlers
let nodes t = t.n
let now t = t.time
let rng t = t.proto_rng
let network t = t.network
let obs t = t.obs
let is_live t i = t.live.(i)
let crashes t ~node = t.crash_counts.(node)

let live_set t =
  let s = Bitset.create t.n in
  Array.iteri (fun i alive -> if alive then Bitset.add s i) t.live;
  s

(* Span context: an ambient span id that send/set_timer/schedule capture
   and dispatch restores around handlers, so causality crosses both the
   network and the event queue without protocols threading it by hand. *)
let span_ctx t = t.ctx
let set_span_ctx t ctx = t.ctx <- ctx

(* An explicit re-raise rather than [Fun.protect], whose [~finally]
   closure and handler cost a few words on every call. *)
let with_span_ctx t ctx f =
  let saved = t.ctx in
  t.ctx <- ctx;
  match f () with
  | v ->
      t.ctx <- saved;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.ctx <- saved;
      Printexc.raise_with_backtrace e bt

let note ?(label = "") t ~node =
  if t.tracing then
    Trace.record t.ring ~time:t.time ~node ~peer:(-1) ~msg_id:(-1) ~span:t.ctx
      ~label Trace.Note

(* --- Arena and heap --------------------------------------------------- *)

(* A timer handle packs the slot (low [slot_bits]) with the event's seq
   shifted above it; it names the event only while the slot still holds
   that seq. *)
let slot_bits = 28
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] handle t s = (t.seqs.(s) lsl slot_bits) lor s

(* Double every slot array (the first call allocates them) and thread
   the new slots onto the empty free list, lowest first. *)
let grow t =
  let cap = Array.length t.seqs in
  let cap' = max 64 (2 * cap) in
  if cap' > slot_mask then failwith "Engine: event queue overflow";
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let times = Float.Array.make cap' 0.0 in
  Float.Array.blit t.times 0 times 0 cap;
  t.times <- times;
  t.seqs <- extend t.seqs 0;
  t.meta <- extend t.meta 0;
  t.a <- extend t.a 0;
  t.b <- extend t.b 0;
  t.uids <- extend t.uids 0;
  t.ctxs <- extend t.ctxs 0;
  t.heap <- extend t.heap 0;
  t.hpos <- extend t.hpos (-1);
  if Array.length t.msgs > 0 then t.msgs <- extend t.msgs t.msgs.(0);
  t.thunks <- extend t.thunks no_thunk;
  for s = cap' - 1 downto cap do
    t.a.(s) <- t.free;
    t.free <- s
  done

let alloc_slot t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.a.(s);
  s

let free_slot t s =
  t.hpos.(s) <- -1;
  t.a.(s) <- t.free;
  t.free <- s

let[@inline] before t i j =
  let ti = Float.Array.get t.times i and tj = Float.Array.get t.times j in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let[@inline] place t s i =
  t.heap.(i) <- s;
  t.hpos.(s) <- i

(* Move slot [s] up from heap position [i] to its place. *)
let rec sift_up t s i =
  if i = 0 then place t s 0
  else
    let p = (i - 1) / 4 in
    let ps = t.heap.(p) in
    if before t s ps then begin
      place t ps i;
      sift_up t s p
    end
    else place t s i

(* Move slot [s] down from heap position [i] to its place. *)
let rec sift_down t s i =
  let first = (4 * i) + 1 in
  if first >= t.size then place t s i
  else begin
    let m = ref first in
    for c = first + 1 to min (first + 3) (t.size - 1) do
      if before t t.heap.(c) t.heap.(!m) then m := c
    done;
    let ms = t.heap.(!m) in
    if before t ms s then begin
      place t ms i;
      sift_down t s !m
    end
    else place t s i
  end

(* Take heap position [i] out: the last entry fills the hole and moves
   whichever way restores the order. *)
let remove_at t i =
  t.size <- t.size - 1;
  if i < t.size then begin
    let last = t.heap.(t.size) in
    if i > 0 && before t last t.heap.((i - 1) / 4) then sift_up t last i
    else sift_down t last i
  end

(* Inlined so [time] stays unboxed from the caller's arithmetic into
   the slot. *)
let[@inline] push t ~time ~kind ~background ~a ~b ~uid ~ctx =
  Prof.enter t.prof Prof.Heap;
  let s = alloc_slot t in
  Float.Array.set t.times s time;
  t.seqs.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.meta.(s) <- (kind lsl 1) lor Bool.to_int background;
  t.a.(s) <- a;
  t.b.(s) <- b;
  t.uids.(s) <- uid;
  t.ctxs.(s) <- ctx;
  sift_up t s t.size;
  t.size <- t.size + 1;
  if not background then t.foreground <- t.foreground + 1;
  Prof.leave t.prof Prof.Heap;
  s

let[@inline] check_delay delay =
  if delay < 0.0 then invalid_arg "Engine: negative delay"

let check_time t time =
  if time < t.time then invalid_arg "Engine: scheduling in the past"

(* --- Scheduling ------------------------------------------------------- *)

let drop t reason =
  t.dropped <- t.dropped + 1;
  Metrics.Handle.incr reason

(* Inlined so [delay] stays unboxed from the network's cell into the
   slot. *)
let[@inline] push_deliver t ~delay ~background ~src ~dst ~uid msg =
  check_delay delay;
  (* Background messages run their handler under no context. *)
  let ctx = if background then -1 else t.ctx in
  let s =
    push t ~time:(t.time +. delay) ~kind:k_deliver ~background ~a:src ~b:dst
      ~uid ~ctx
  in
  if Array.length t.msgs = 0 then
    t.msgs <- Array.make (Array.length t.seqs) msg
  else t.msgs.(s) <- msg

let send ?(background = false) t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Engine.send: bad node id";
  if t.live.(src) then begin
    let uid =
      (* Background traffic (heartbeats) would flood the trace ring and
         evict the protocol messages the causality check cares about,
         so it is metered but never traced. *)
      if background then begin
        t.background_sent <- t.background_sent + 1;
        Metrics.incr t.ins.m_background;
        -1
      end
      else begin
        t.sent <- t.sent + 1;
        Metrics.incr t.ins.m_sent;
        let uid = t.next_uid in
        t.next_uid <- uid + 1;
        if t.tracing then
          Trace.record t.ring ~time:t.time ~node:src ~peer:dst ~msg_id:uid
            ~span:t.ctx ~label:"" Trace.Send;
        uid
      end
    in
    if src = dst then push_deliver t ~delay:0.0 ~background ~src ~dst ~uid msg
    else if Network.draw t.network t.net_rng ~src ~dst t.lat then
      push_deliver t
        ~delay:(Float.Array.get t.lat 0)
        ~background ~src ~dst ~uid msg
    else begin
      drop t t.ins.m_drop_net;
      if (not background) && t.tracing then
        Trace.record t.ring ~time:t.time ~node:src ~peer:dst ~msg_id:uid
          ~span:t.ctx ~label:"net" Trace.Drop
    end
  end

let broadcast ?(background = false) t ~src ~dsts msg =
  List.iter (fun dst -> send ~background t ~src ~dst msg) dsts

let timer ?(background = false) t ~node ~delay ~tag =
  if node < 0 || node >= t.n then invalid_arg "Engine.timer: bad node";
  check_delay delay;
  let s =
    push t ~time:(t.time +. delay) ~kind:k_timer ~background ~a:node ~b:tag
      ~uid:(-1) ~ctx:t.ctx
  in
  handle t s

let set_timer ?background t ~node ~delay ~tag =
  ignore (timer ?background t ~node ~delay ~tag)

(* A cancelled foreground event leaves its [(time, seq)] behind as the
   ghost when it is the latest one not yet passed. *)
let[@inline] before_ghost t s =
  let ts = Float.Array.get t.times s and tg = Float.Array.get t.ghost_time 0 in
  ts < tg || (ts = tg && t.seqs.(s) < t.ghost_seq)

let cancel t h =
  let s = h land slot_mask in
  if s < Array.length t.hpos && t.hpos.(s) >= 0 && handle t s = h then begin
    Prof.enter t.prof Prof.Heap;
    if t.meta.(s) land 1 = 0 then begin
      t.foreground <- t.foreground - 1;
      if t.ghost_seq < 0 || not (before_ghost t s) then begin
        Float.Array.set t.ghost_time 0 (Float.Array.get t.times s);
        t.ghost_seq <- t.seqs.(s)
      end
    end;
    remove_at t t.hpos.(s);
    free_slot t s;
    Prof.leave t.prof Prof.Heap
  end

let crash_at t ~time ~node =
  check_time t time;
  ignore
    (push t ~time ~kind:k_crash ~background:false ~a:node ~b:0 ~uid:(-1)
       ~ctx:(-1))

let recover_at ?(amnesia = false) t ~time ~node =
  check_time t time;
  ignore
    (push t ~time ~kind:k_recover ~background:false ~a:node
       ~b:(Bool.to_int amnesia) ~uid:(-1) ~ctx:(-1))

let schedule ?(background = false) t ~time thunk =
  check_time t time;
  let s =
    push t ~time ~kind:k_thunk ~background ~a:(-1) ~b:0 ~uid:(-1) ~ctx:t.ctx
  in
  t.thunks.(s) <- thunk

(* --- Heartbeats ------------------------------------------------------- *)

(* Copies of [a] with room for [cap] elements. *)
let resize_floats a cap =
  let a' = Float.Array.make cap 0.0 in
  Float.Array.blit a 0 a' 0 (Float.Array.length a);
  a'

let resize_ints a cap =
  let a' = Array.make cap 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Called when the arrays are full: slide the records to the front if
   that frees at least half, else double the arrays. *)
let make_room b =
  let len = b.i_size - b.i_head in
  if b.i_head > 0 && 2 * b.i_head >= Array.length b.i_seqs then begin
    Float.Array.blit b.i_times b.i_head b.i_times 0 len;
    Array.blit b.i_seqs b.i_head b.i_seqs 0 len;
    Array.blit b.i_srcs b.i_head b.i_srcs 0 len;
    b.i_head <- 0;
    b.i_size <- len
  end
  else begin
    let cap = max 16 (2 * Array.length b.i_seqs) in
    b.i_times <- resize_floats b.i_times cap;
    b.i_seqs <- resize_ints b.i_seqs cap;
    b.i_srcs <- resize_ints b.i_srcs cap
  end

(* Insert an arrival from the tail.  Its seq is the largest yet, so
   only a later arrival moves up; most beats arrive last. *)
let[@inline] file b time seq src =
  if b.i_size = Array.length b.i_seqs then make_room b;
  let i = ref b.i_size in
  while !i > b.i_head && time < Float.Array.get b.i_times (!i - 1) do
    Float.Array.set b.i_times !i (Float.Array.get b.i_times (!i - 1));
    b.i_seqs.(!i) <- b.i_seqs.(!i - 1);
    b.i_srcs.(!i) <- b.i_srcs.(!i - 1);
    decr i
  done;
  Float.Array.set b.i_times !i time;
  b.i_seqs.(!i) <- seq;
  b.i_srcs.(!i) <- src;
  b.i_size <- b.i_size + 1

(* One [send ~background:true] per peer, ascending [dst], up to the
   queue push: the same network draws on the same RNG, and each arrival
   filed under the seq its delivery event would have taken, so the
   events around it keep their relative order.  The counts are added
   once per round, and only when positive, so a round adds no metric
   cell a per-beat count would not have. *)
let beat_round t ~src =
  if src < 0 || src >= t.n then invalid_arg "Engine.beat_round: bad node id";
  if t.live.(src) then begin
    let lost = ref 0 in
    for dst = 0 to t.n - 1 do
      if dst <> src then
        if Network.draw t.network t.net_rng ~src ~dst t.lat then begin
          let delay = Float.Array.get t.lat 0 in
          check_delay delay;
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          file t.inboxes.(dst) (t.time +. delay) seq src
        end
        else incr lost
    done;
    let sent = t.n - 1 in
    if sent > 0 then begin
      t.background_sent <- t.background_sent + sent;
      Metrics.incr ~by:sent t.ins.m_background
    end;
    if !lost > 0 then begin
      t.dropped <- t.dropped + !lost;
      Metrics.Handle.incr ~by:!lost t.ins.m_drop_net
    end
  end

(* Was [node] live when the dispatch loop passed [(time, seq)]?  Judged
   from its last crash and last recovery alone, so exact for arrivals
   after its next-to-last recovery; taking a node's beats at each of
   its recoveries leaves no older ones (see engine.mli). *)
let[@inline] live_at t node time seq =
  let dt = Float.Array.get t.down_time node in
  let before_down = time < dt || (time = dt && seq < t.down_seq.(node)) in
  if t.live.(node) then
    let ut = Float.Array.get t.up_time node in
    before_down || time > ut || (time = ut && seq > t.up_seq.(node))
  else before_down

let take_beats t ~node =
  let out = t.taken in
  out.count <- 0;
  let b = t.inboxes.(node) in
  let pt = Float.Array.get t.pos_time 0 and ps = t.pos_seq in
  while
    b.i_head < b.i_size
    &&
    let time = Float.Array.get b.i_times b.i_head in
    time < pt || (time = pt && b.i_seqs.(b.i_head) < ps)
  do
    let k = b.i_head in
    let time = Float.Array.get b.i_times k in
    b.i_head <- k + 1;
    if live_at t node time b.i_seqs.(k) then begin
      if out.count = Array.length out.srcs then begin
        let cap = max 16 (2 * out.count) in
        out.times <- resize_floats out.times cap;
        out.srcs <- resize_ints out.srcs cap
      end;
      Float.Array.set out.times out.count time;
      out.srcs.(out.count) <- b.i_srcs.(k);
      out.count <- out.count + 1
    end
  done;
  if b.i_head = b.i_size then begin
    b.i_head <- 0;
    b.i_size <- 0
  end;
  out

let beats_pending t ~node =
  let b = t.inboxes.(node) in
  b.i_size - b.i_head

let messages_sent t = t.sent
let messages_background t = t.background_sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let events_dispatched t = t.dispatched
let liveness_changes t = t.flips
let budget_exhaustions t = t.budget_hits

(* --- Dispatch --------------------------------------------------------- *)

(* Restore the saved ambient context and close the probe on the handler's
   exception path; the happy path inlines the same two steps.  Written
   out per branch rather than through [with_span_ctx] so dispatch
   allocates no closure per event. *)
let[@inline] reraise t cat saved e =
  let bt = Printexc.get_raw_backtrace () in
  t.ctx <- saved;
  Prof.leave t.prof cat;
  Printexc.raise_with_backtrace e bt

let deliver t ~background ~src ~dst ~uid ~ctx msg =
  if t.live.(dst) then begin
    t.delivered <- t.delivered + 1;
    Metrics.incr t.ins.m_delivered;
    if (not background) && t.tracing then
      Trace.record t.ring ~time:t.time ~node:dst ~peer:src ~msg_id:uid
        ~span:ctx ~label:"" Trace.Deliver;
    (* The handler runs under the sender's span context: replies it
       sends (and timers it arms) inherit the operation that caused
       this delivery. *)
    let saved = t.ctx in
    t.ctx <- ctx;
    Prof.enter t.prof Prof.Dispatch_msg;
    (try t.handlers.on_message t ~node:dst ~src msg
     with e -> reraise t Prof.Dispatch_msg saved e);
    t.ctx <- saved;
    Prof.leave t.prof Prof.Dispatch_msg
  end
  else begin
    drop t t.ins.m_drop_dead;
    if (not background) && t.tracing then
      Trace.record t.ring ~time:t.time ~node:dst ~peer:src ~msg_id:uid
        ~span:ctx ~label:"dead_dst" Trace.Drop
  end

let fire_timer t ~node ~tag ~ctx =
  if t.live.(node) then begin
    let saved = t.ctx in
    t.ctx <- ctx;
    Prof.enter t.prof Prof.Dispatch_timer;
    (try t.handlers.on_timer t ~node ~tag
     with e -> reraise t Prof.Dispatch_timer saved e);
    t.ctx <- saved;
    Prof.leave t.prof Prof.Dispatch_timer
  end

let crash t ~node =
  if t.live.(node) then begin
    t.live.(node) <- false;
    t.crash_counts.(node) <- t.crash_counts.(node) + 1;
    t.flips <- t.flips + 1;
    Float.Array.set t.down_time node t.time;
    t.down_seq.(node) <- t.pos_seq;
    Metrics.incr t.ins.m_crashes;
    if t.tracing then
      Trace.record t.ring ~time:t.time ~node ~peer:(-1) ~msg_id:(-1) ~span:(-1)
        ~label:"" Trace.Crash;
    let saved = t.ctx in
    t.ctx <- -1;
    Prof.enter t.prof Prof.Dispatch_recovery;
    (try t.handlers.on_crash t ~node
     with e -> reraise t Prof.Dispatch_recovery saved e);
    t.ctx <- saved;
    Prof.leave t.prof Prof.Dispatch_recovery
  end

let recover t ~node ~amnesia =
  if not t.live.(node) then begin
    t.live.(node) <- true;
    t.flips <- t.flips + 1;
    Float.Array.set t.up_time node t.time;
    t.up_seq.(node) <- t.pos_seq;
    Metrics.Handle.incr
      (if amnesia then t.ins.m_recover_amnesia else t.ins.m_recover_plain);
    if t.tracing then
      Trace.record t.ring ~time:t.time ~node ~peer:(-1) ~msg_id:(-1) ~span:(-1)
        ~label:(if amnesia then "amnesia" else "")
        Trace.Recover;
    let saved = t.ctx in
    t.ctx <- -1;
    Prof.enter t.prof Prof.Dispatch_recovery;
    (try t.handlers.on_recover t ~node ~amnesia
     with e -> reraise t Prof.Dispatch_recovery saved e);
    t.ctx <- saved;
    Prof.leave t.prof Prof.Dispatch_recovery
  end

let run_thunk t f ~ctx =
  let saved = t.ctx in
  t.ctx <- ctx;
  Prof.enter t.prof Prof.Thunk;
  (try f () with e -> reraise t Prof.Thunk saved e);
  t.ctx <- saved;
  Prof.leave t.prof Prof.Thunk

(* The slot is read out and freed before its handler runs, so a handler
   that raises leaves the arena consistent and pushes made from inside
   handlers can reuse it. *)
let dispatch t s =
  let meta = t.meta.(s) and a = t.a.(s) and b = t.b.(s) in
  let kind = meta lsr 1 and background = meta land 1 = 1 and ctx = t.ctxs.(s) in
  if not background then t.foreground <- t.foreground - 1;
  if kind = k_deliver then begin
    let uid = t.uids.(s) and msg = t.msgs.(s) in
    free_slot t s;
    deliver t ~background ~src:a ~dst:b ~uid ~ctx msg
  end
  else if kind = k_thunk then begin
    let f = t.thunks.(s) in
    t.thunks.(s) <- no_thunk;
    free_slot t s;
    run_thunk t f ~ctx
  end
  else begin
    free_slot t s;
    if kind = k_timer then fire_timer t ~node:a ~tag:b ~ctx
    else if kind = k_crash then crash t ~node:a
    else recover t ~node:a ~amnesia:(b = 1)
  end

let run_status ?until ?(max_events = 10_000_000) t =
  let clamp_until () =
    match until with Some u -> if u > t.time then t.time <- u | None -> ()
  in
  let rec loop budget =
    if budget = 0 then begin
      t.budget_hits <- t.budget_hits + 1;
      Budget_exhausted
    end
    else if t.foreground = 0 && t.ghost_seq < 0 then begin
      (* Only background events (heartbeats, ...) remain: the
         simulation's real work has drained. *)
      clamp_until ();
      Drained
    end
    else
      (* With no foreground event queued, a pending ghost is where the
         run drains: the background events before it still run. *)
      let to_ghost =
        t.foreground = 0 && (t.size = 0 || not (before_ghost t t.heap.(0)))
      in
      let time =
        if to_ghost then Float.Array.get t.ghost_time 0
        else Float.Array.get t.times t.heap.(0)
      in
      let stop = match until with Some u -> time > u | None -> false in
      if stop then begin
        clamp_until ();
        (* Heartbeats arriving by [until] count as arrived: a queued
           delivery would have been dispatched before the stop. *)
        (match until with
        | Some u when u >= Float.Array.get t.pos_time 0 ->
            Float.Array.set t.pos_time 0 u;
            t.pos_seq <- max_int
        | Some _ | None -> ());
        Reached_until
      end
      else if to_ghost then begin
        t.time <- time;
        Float.Array.set t.pos_time 0 time;
        t.pos_seq <- t.ghost_seq;
        t.ghost_seq <- -1;
        clamp_until ();
        Drained
      end
      else begin
        let s = t.heap.(0) in
        Prof.enter t.prof Prof.Heap;
        remove_at t 0;
        Prof.leave t.prof Prof.Heap;
        t.time <- time;
        Float.Array.set t.pos_time 0 time;
        t.pos_seq <- t.seqs.(s);
        if t.ghost_seq >= 0 && not (before_ghost t s) then t.ghost_seq <- -1;
        t.dispatched <- t.dispatched + 1;
        dispatch t s;
        loop (budget - 1)
      end
  in
  (* The loop probe brackets the whole drain, so every category of a
     profiled run nests inside it and the report's total is the run's
     wall time — self time lands in [Loop] for the loop's own
     bookkeeping (peeks, budget and drain checks). *)
  Prof.enter t.prof Prof.Loop;
  match loop max_events with
  | outcome ->
      Prof.leave t.prof Prof.Loop;
      outcome
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Prof.leave t.prof Prof.Loop;
      Printexc.raise_with_backtrace e bt

let run ?until ?max_events t =
  match run_status ?until ?max_events t with
  | Drained | Reached_until -> ()
  | Budget_exhausted -> failwith "Engine.run: event budget exhausted"
