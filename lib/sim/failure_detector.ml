module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics

let fd_tag = -1
let eps = 1e-9

(* log10 e: the accrual suspicion level of an exponential inter-arrival
   model, phi = -log10 P(next beat still pending) = log10(e) * elapsed
   / mean_interarrival. *)
let log10_e = 0.4342944819032518

type mode =
  | Fixed_timeout of float
  | Accrual of { threshold : float; window : int; min_samples : int }

type instruments = {
  f_beats : Metrics.counter;
  f_suspected : Metrics.gauge Metrics.Handle.t array;  (** [node=i] *)
  f_false : Metrics.counter;
  f_fp : Metrics.counter;
  f_missed : Metrics.counter;
  f_trans : Metrics.counter;
  f_detect : Metrics.histogram;
}

type stats = {
  detections : int;
  mean_detect : float;
  max_detect : float;
  false_positives : int;
  missed : int;
  transitions : int;
}

type 'msg t = {
  period : float;
  timeout : float;
  mode : mode;
  n : int;
  engine : 'msg Engine.t;
  ins : instruments;
  last_heard : float array array;
      (** [last_heard.(i).(j)]: when [i] last heard from [j], as of the
          last [settle] of [i]. *)
  next_due : float array;
      (** the one legitimate heartbeat chain per node; stale chains
          (pre-crash timers still in the queue) are dropped by
          comparing fire time against this. *)
  (* Accrual state: per (observer, peer) ring of recent inter-arrival
     times with a running sum, so the mean is O(1) per suspicion
     query.  Allocated only in [Accrual] mode. *)
  ring : float array array array;
  ring_len : int array array;
  ring_pos : int array array;
  ring_sum : float array array;
  (* Oracle-side accuracy bookkeeping, sampled at beat granularity in
     [sample_accuracy]; pure observation — touches no RNG, schedules
     no events.  [was_live] mirrors the engine's liveness as of
     [seen_flips] of its transitions (see [sync_liveness]). *)
  mutable seen_flips : int;
  was_live : bool array;
  down_since : float array;
  prev_suspected : bool array array;
  s_detections : int array;
  s_detect_sum : float array;
  s_detect_max : float array;
  s_fp : int array;
  s_missed : int array;
  s_trans : int array;
}

let make_instruments engine =
  let m = Obs.metrics (Engine.obs engine) in
  let suspected =
    Metrics.gauge m ~help:"peers currently suspected, sampled each beat period"
      "fd.suspected"
  in
  {
    f_beats = Metrics.counter m ~help:"heartbeats sent" "fd.beats_sent";
    f_suspected =
      Array.init (Engine.nodes engine) (fun i ->
          Metrics.Handle.gauge suspected [ ("node", string_of_int i) ]);
    f_false =
      Metrics.counter m
        ~help:"suspicion samples where the suspect was actually live"
        "fd.false_suspicions";
    f_fp =
      Metrics.counter m ~help:"suspicion onsets whose target was actually live"
        "fd.false_positives";
    f_missed =
      Metrics.counter m
        ~help:
          "beat samples where a peer dead beyond timeout+period was still \
           unsuspected"
        "fd.missed_suspicions";
    f_trans =
      Metrics.counter m ~help:"suspicion state changes (either way)"
        "fd.transitions";
    f_detect =
      Metrics.histogram m ~help:"crash to first suspicion, per (observer, peer)"
        "fd.detection_latency";
  }

let schedule_beat t ~node ~delay =
  t.next_due.(node) <- Engine.now t.engine +. delay;
  Engine.set_timer t.engine ~background:true ~node ~delay ~tag:fd_tag

let create engine ?(period = 1.0) ?(timeout = 5.0) ?mode () =
  if period <= 0.0 then invalid_arg "Failure_detector.create: period";
  let nodes = Engine.nodes engine in
  let mode = Option.value mode ~default:(Fixed_timeout timeout) in
  let timeout =
    match mode with Fixed_timeout x -> x | Accrual _ -> timeout
  in
  if timeout <= period then
    invalid_arg "Failure_detector.create: timeout must exceed period";
  let window =
    match mode with
    | Fixed_timeout _ -> 0
    | Accrual { threshold; window; min_samples } ->
        if threshold <= 0.0 then
          invalid_arg "Failure_detector.create: accrual threshold";
        if window < 2 then invalid_arg "Failure_detector.create: accrual window";
        if min_samples < 1 || min_samples > window then
          invalid_arg "Failure_detector.create: accrual min_samples";
        window
  in
  let t =
    {
      period;
      timeout;
      mode;
      n = nodes;
      engine;
      ins = make_instruments engine;
      (* Everyone starts presumed live. *)
      last_heard = Array.make_matrix nodes nodes (Engine.now engine);
      next_due = Array.make nodes infinity;
      ring =
        (if window = 0 then [||]
         else Array.init nodes (fun _ -> Array.make_matrix nodes window 0.0));
      ring_len = Array.make_matrix nodes nodes 0;
      ring_pos = Array.make_matrix nodes nodes 0;
      ring_sum = Array.make_matrix nodes nodes 0.0;
      seen_flips = 0;
      was_live = Array.make nodes true;
      down_since = Array.make nodes nan;
      prev_suspected = Array.make_matrix nodes nodes false;
      s_detections = Array.make nodes 0;
      s_detect_sum = Array.make nodes 0.0;
      s_detect_max = Array.make nodes 0.0;
      s_fp = Array.make nodes 0;
      s_missed = Array.make nodes 0;
      s_trans = Array.make nodes 0;
    }
  in
  (* Stagger first beats so the whole system does not pulse at once. *)
  for i = 0 to nodes - 1 do
    let stagger = 0.25 +. (0.75 *. float_of_int i /. float_of_int nodes) in
    schedule_beat t ~node:i ~delay:(period *. stagger)
  done;
  t

let period t = t.period
let timeout t = t.timeout
let mode t = t.mode

(* Apply the heartbeats that have arrived at [node], earliest first,
   each as if handled at its arrival instant.  Every read of [node]'s
   opinions settles first. *)
let settle t ~node =
  let beats = Engine.take_beats t.engine ~node in
  let times = beats.Engine.times and srcs = beats.Engine.srcs in
  for k = 0 to beats.Engine.count - 1 do
    let now = Float.Array.get times k and from = srcs.(k) in
    (match t.mode with
    | Fixed_timeout _ -> ()
    | Accrual { window; _ } ->
        let interval = now -. t.last_heard.(node).(from) in
        (* Record the inter-arrival, skipping silences past the fallback
           timeout: those are failures (crash, cut, long gray window),
           not latency variation, and folding them into the mean would
           blunt detection of the *next* failure. *)
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
  done

let mean_interarrival t ~node j =
  let len = t.ring_len.(node).(j) in
  if len = 0 then 0.0 else t.ring_sum.(node).(j) /. float_of_int len

let suspicion t ~node j =
  if j = node then 0.0
  else begin
    settle t ~node;
    let elapsed = Engine.now t.engine -. t.last_heard.(node).(j) in
    match t.mode with
    | Fixed_timeout timeout -> elapsed /. timeout
    | Accrual { threshold; min_samples; _ } ->
        if t.ring_len.(node).(j) < min_samples then elapsed /. t.timeout
        else
          let mean = mean_interarrival t ~node j in
          if mean <= 0.0 then elapsed /. t.timeout
          else log10_e *. elapsed /. mean /. threshold
  end

(* [suspects] on a settled [node], at time [now]. *)
let suspects_settled t ~node ~now j =
  if j = node then false
  else begin
    let elapsed = now -. t.last_heard.(node).(j) in
    match t.mode with
    | Fixed_timeout timeout -> elapsed > timeout
    | Accrual { threshold; min_samples; _ } ->
        if t.ring_len.(node).(j) < min_samples then elapsed > t.timeout
        else
          let mean = mean_interarrival t ~node j in
          if mean <= 0.0 then elapsed > t.timeout
          else log10_e *. elapsed /. mean >= threshold
  end

let suspects t ~node j =
  j <> node
  && begin
    settle t ~node;
    suspects_settled t ~node ~now:(Engine.now t.engine) j
  end

(* The oracle's liveness mirror, [was_live], and its crash clock,
   [down_since]: the first sync after a crash stamps it, so it advances
   at beat granularity.  The engine is re-read only when some node's
   liveness has changed since the last sync. *)
let sync_liveness t ~now =
  let flips = Engine.liveness_changes t.engine in
  if flips <> t.seen_flips then begin
    t.seen_flips <- flips;
    for j = 0 to t.n - 1 do
      let live = Engine.is_live t.engine j in
      if live && not t.was_live.(j) then begin
        t.was_live.(j) <- true;
        t.down_since.(j) <- nan
      end
      else if (not live) && t.was_live.(j) then begin
        t.was_live.(j) <- false;
        t.down_since.(j) <- now
      end
    done
  end

(* Detector accuracy, sampled once per beat period at the observing
   node, against the oracle mirrored by [sync_liveness]: suspected-peer
   gauge, per-sample false suspicions (historical), plus
   transition-based false positives, detection latency (crash -> first
   suspicion) and missed-detection samples.  Latencies are accurate to
   within one beat period, the oracle clock's granularity; good enough
   for the detection-time vs accuracy tradeoffs the bench sweeps.  The
   counts of the round are added once, and only when positive, so no
   metric cell appears that per-peer updates would not have made. *)
let sample_accuracy t ~node ~now =
  settle t ~node;
  let prev = t.prev_suspected.(node) in
  let suspected = ref 0 and false_sus = ref 0 and trans = ref 0 in
  let fp = ref 0 and missed = ref 0 in
  for j = 0 to t.n - 1 do
    if j <> node then begin
      let live = t.was_live.(j) in
      let sus = suspects_settled t ~node ~now j in
      if sus then begin
        incr suspected;
        if live then incr false_sus
      end;
      if sus <> prev.(j) then begin
        prev.(j) <- sus;
        incr trans;
        if sus then
          if live then incr fp
          else begin
            let since = t.down_since.(j) in
            if not (Float.is_nan since) then begin
              let lat = now -. since in
              t.s_detections.(node) <- t.s_detections.(node) + 1;
              t.s_detect_sum.(node) <- t.s_detect_sum.(node) +. lat;
              if lat > t.s_detect_max.(node) then
                t.s_detect_max.(node) <- lat;
              Metrics.observe t.ins.f_detect lat
            end
          end
      end;
      (* Missed detection: the peer has been dead for longer than the
         detector's own completeness bound yet is still trusted. *)
      if
        (not sus) && (not live)
        && (not (Float.is_nan t.down_since.(j)))
        && now -. t.down_since.(j) > t.timeout +. t.period
      then incr missed
    end
  done;
  t.s_trans.(node) <- t.s_trans.(node) + !trans;
  t.s_fp.(node) <- t.s_fp.(node) + !fp;
  t.s_missed.(node) <- t.s_missed.(node) + !missed;
  let add c k = if k > 0 then Metrics.incr ~by:k c in
  add t.ins.f_false !false_sus;
  add t.ins.f_trans !trans;
  add t.ins.f_fp !fp;
  add t.ins.f_missed !missed;
  Metrics.Handle.set t.ins.f_suspected.(node) (float_of_int !suspected)

let on_timer t ~node ~tag =
  if tag <> fd_tag then false
  else begin
    let now = Engine.now t.engine in
    (* Drop duplicate chains left over from crash/recovery races. *)
    if abs_float (now -. t.next_due.(node)) <= eps then begin
      sync_liveness t ~now;
      (* A dead observer runs no beat rounds of its own, so nothing
         settles it until it recovers: settle it as beats reach it, so
         its inbox stays bounded.  Settling before the round is settling
         between its beats: none of them has arrived when it returns. *)
      for dst = 0 to t.n - 1 do
        if dst <> node && not t.was_live.(dst) then settle t ~node:dst
      done;
      Engine.beat_round t.engine ~src:node;
      if t.n > 1 then Metrics.incr ~by:(t.n - 1) t.ins.f_beats;
      sample_accuracy t ~node ~now;
      schedule_beat t ~node ~delay:t.period
    end;
    true
  end

let on_recover t ~node =
  (* Beats that arrived before the crash still count (the accrual ring
     outlives it); the reset below must come after them. *)
  settle t ~node;
  let now = Engine.now t.engine in
  (* Fresh start: the recovered node presumes everyone live again and
     resumes its own heartbeat chain. *)
  for j = 0 to t.n - 1 do
    t.last_heard.(node).(j) <- now;
    t.prev_suspected.(node).(j) <- false
  done;
  schedule_beat t ~node ~delay:(t.period *. 0.5)

let view t ~node =
  settle t ~node;
  let now = Engine.now t.engine in
  let s = Bitset.create t.n in
  for j = 0 to t.n - 1 do
    if not (suspects_settled t ~node ~now j) then Bitset.add s j
  done;
  s

let suspected_count t ~node =
  settle t ~node;
  let now = Engine.now t.engine in
  let c = ref 0 in
  for j = 0 to t.n - 1 do
    if suspects_settled t ~node ~now j then incr c
  done;
  !c

let stats t ~node =
  let d = t.s_detections.(node) in
  {
    detections = d;
    mean_detect =
      (if d = 0 then 0.0 else t.s_detect_sum.(node) /. float_of_int d);
    max_detect = t.s_detect_max.(node);
    false_positives = t.s_fp.(node);
    missed = t.s_missed.(node);
    transitions = t.s_trans.(node);
  }
