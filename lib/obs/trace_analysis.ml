(* Offline analysis over a recorded (trace, spans) pair: causal-tree
   reconstruction, critical-path latency breakdowns, and a consistency
   auditor over recorded operation histories. *)

type breakdown = {
  network : float;
  fsync : float;
  queueing : float;
  retransmit : float;
}

let zero_breakdown =
  { network = 0.0; fsync = 0.0; queueing = 0.0; retransmit = 0.0 }

let breakdown_total b = b.network +. b.fsync +. b.queueing +. b.retransmit

let breakdown_add a b =
  {
    network = a.network +. b.network;
    fsync = a.fsync +. b.fsync;
    queueing = a.queueing +. b.queueing;
    retransmit = a.retransmit +. b.retransmit;
  }

type op_profile = {
  root : Span.span;
  events : Trace.event list;
  latency : float;
  breakdown : breakdown;
  complete : bool;
}

(* An fsync span has "fsync" anywhere in its name ("fsync", "store.fsync"). *)
let is_fsync name =
  let n = String.length name and m = 5 in
  let rec at i =
    i + m <= n && (String.sub name i m = "fsync" || at (i + 1))
  in
  at 0

let root_of spans id =
  match Span.get spans id with Some s -> Some s.Span.root | None -> None

(* root id -> op events, chronological (trace iteration order). *)
let bucket_events ~trace ~spans =
  let tbl = Hashtbl.create 64 in
  Trace.iter trace (fun (e : Trace.event) ->
      if e.span >= 0 then
        match root_of spans e.span with
        | Some r ->
            let prev =
              match Hashtbl.find_opt tbl r with Some l -> l | None -> []
            in
            Hashtbl.replace tbl r (e :: prev)
        | None -> ());
  let out = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
  Hashtbl.iter (fun r l -> Hashtbl.add out r (List.rev l)) tbl;
  out

(* Merge possibly-overlapping (start, end) intervals. *)
let merge_intervals ivs =
  let sorted = List.sort compare ivs in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
        match acc with
        | (ps, pe) :: tl when s <= pe -> go ((ps, max pe e) :: tl) rest
        | _ -> go ((s, e) :: acc) rest)
  in
  go [] sorted

let overlap_sum ivs a b =
  List.fold_left
    (fun acc (s, e) ->
      let lo = max a s and hi = min b e in
      if hi > lo then acc +. (hi -. lo) else acc)
    0.0 ivs

(* Critical-path walk for one finished root span.

   Walking backward from the operation's end: the last message
   delivered on the current node explains how control got there; the
   send-to-deliver interval of that message is a network edge, and the
   deliver-to-now gap is local time on the node.  Local gaps are split
   into fsync (overlap with the op's fsync spans on that node),
   retransmit (a "rpc.retransmit" note fired in the gap — the node was
   waiting out a retransmission timer) and queueing (everything else).
   Every interval of [start, end] lands in exactly one component, so
   the components sum to the end-to-end latency by construction. *)
let profile_root ~fsync_by_node (root : Span.span) events =
  let start = root.Span.start_time and stop = root.Span.end_time in
  let ev = Array.of_list events in
  let n = Array.length ev in
  let sends = Hashtbl.create 32 in
  Array.iteri
    (fun i (e : Trace.event) ->
      if e.kind = Trace.Send && e.msg_id >= 0 then
        if not (Hashtbl.mem sends e.msg_id) then Hashtbl.add sends e.msg_id i)
    ev;
  let retrans =
    Array.to_list ev
    |> List.filter_map (fun (e : Trace.event) ->
           if e.kind = Trace.Note && e.label = "rpc.retransmit" then
             Some (e.node, e.time)
           else None)
  in
  let fsync_ivs node =
    match Hashtbl.find_opt fsync_by_node node with
    | Some ivs -> ivs
    | None -> []
  in
  let acc = ref zero_breakdown in
  let complete = ref true in
  let classify_local node a b =
    let a = max a start and b = min b stop in
    if b > a then begin
      let f = overlap_sum (fsync_ivs node) a b in
      let rest = max 0.0 (b -. a -. f) in
      let waited_retrans =
        List.exists (fun (n', t) -> n' = node && t >= a && t <= b) retrans
      in
      acc :=
        {
          !acc with
          fsync = !acc.fsync +. f;
          queueing = (!acc.queueing +. if waited_retrans then 0.0 else rest);
          retransmit =
            (!acc.retransmit +. if waited_retrans then rest else 0.0);
        }
    end
  in
  (* Latest Deliver on [node] strictly before record index [idx] and not
     after [t_cur].  Record order is time order, so index bounds double
     as time bounds for same-time events. *)
  let rec find_deliver node idx t_cur =
    if idx <= 0 then None
    else
      let e = ev.(idx - 1) in
      if e.kind = Trace.Deliver && e.node = node && e.time <= t_cur then
        Some (idx - 1)
      else find_deliver node (idx - 1) t_cur
  in
  let rec walk node idx t_cur =
    if t_cur > start then
      match find_deliver node idx t_cur with
      | None ->
          (* No earlier message reached this node inside the op: the
             rest is local work since the op started. *)
          classify_local node start t_cur
      | Some di -> (
          let d = ev.(di) in
          classify_local node d.time t_cur;
          match Hashtbl.find_opt sends d.msg_id with
          | Some si when si < di ->
              let s = ev.(si) in
              let a = max s.time start in
              if d.time > a then
                acc := { !acc with network = !acc.network +. (d.time -. a) };
              walk s.node si s.time
          | _ ->
              (* The matching send fell off the trace ring: we cannot
                 follow the chain further.  Attribute the unexplained
                 remainder to queueing and say so. *)
              complete := false;
              let a = start and b = max start d.time in
              if b > a then
                acc := { !acc with queueing = !acc.queueing +. (b -. a) })
  in
  walk root.Span.node n stop;
  {
    root;
    events = Array.to_list ev;
    latency = stop -. start;
    breakdown = !acc;
    complete = !complete;
  }

let profile_ops ~trace ~spans () =
  let buckets = bucket_events ~trace ~spans in
  (* Per root: fsync intervals grouped by node, merged. *)
  let fsync_raw = Hashtbl.create 32 in
  Span.iter spans (fun (s : Span.span) ->
      if (not (Span.is_open s)) && is_fsync s.name then begin
        let prev =
          match Hashtbl.find_opt fsync_raw s.root with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace fsync_raw s.root
          ((s.node, s.start_time, s.end_time) :: prev)
      end);
  Span.roots spans
  |> List.filter (fun (r : Span.span) -> not (Span.is_open r))
  |> List.map (fun (r : Span.span) ->
         let events =
           match Hashtbl.find_opt buckets r.id with Some l -> l | None -> []
         in
         let fsync_by_node = Hashtbl.create 8 in
         (match Hashtbl.find_opt fsync_raw r.id with
         | None -> ()
         | Some l ->
             List.iter
               (fun (node, s, e) ->
                 let prev =
                   match Hashtbl.find_opt fsync_by_node node with
                   | Some l -> l
                   | None -> []
                 in
                 Hashtbl.replace fsync_by_node node ((s, e) :: prev))
               l;
             Hashtbl.iter
               (fun node ivs ->
                 Hashtbl.replace fsync_by_node node (merge_intervals ivs))
               (Hashtbl.copy fsync_by_node));
         profile_root ~fsync_by_node r events)

let events_of_op ~trace ~spans root =
  let buckets = bucket_events ~trace ~spans in
  match Hashtbl.find_opt buckets root with Some l -> l | None -> []

(* Nearest-rank percentile over a float list (matches Metrics). *)
let percentile xs q =
  if q < 0.0 || q > 1.0 then invalid_arg "Trace_analysis.percentile: q";
  match xs with
  | [] -> None
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank =
        min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
      in
      Some a.(rank)

type aggregate = {
  count : int;
  complete : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_v : float;
  total : breakdown;  (** summed across ops *)
}

let aggregate profiles =
  let lats = List.map (fun p -> p.latency) profiles in
  let count = List.length profiles in
  let pct q = match percentile lats q with Some v -> v | None -> 0.0 in
  {
    count;
    complete =
      List.length (List.filter (fun (p : op_profile) -> p.complete) profiles);
    mean =
      (if count = 0 then 0.0
       else List.fold_left ( +. ) 0.0 lats /. float_of_int count);
    p50 = pct 0.5;
    p90 = pct 0.9;
    p99 = pct 0.99;
    max_v = List.fold_left max 0.0 lats;
    total =
      List.fold_left
        (fun acc p -> breakdown_add acc p.breakdown)
        zero_breakdown profiles;
  }

let by_name profiles =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun p ->
      let name = p.root.Span.name in
      match Hashtbl.find_opt tbl name with
      | Some l -> Hashtbl.replace tbl name (p :: l)
      | None ->
          order := name :: !order;
          Hashtbl.add tbl name [ p ])
    profiles;
  List.rev_map
    (fun name -> (name, List.rev (Hashtbl.find tbl name)))
    !order

(* ------------------------------------------------------------------ *)
(* Span windows (e.g. reconfiguration downtime) *)

let span_windows ~spans ~name =
  let ivs = ref [] in
  Span.iter spans (fun (s : Span.span) ->
      if s.Span.name = name && not (Span.is_open s) then
        ivs := (s.Span.start_time, s.Span.end_time) :: !ivs);
  merge_intervals !ivs

let span_window_total ~spans ~name =
  List.fold_left
    (fun acc (s, e) -> acc +. (e -. s))
    0.0
    (span_windows ~spans ~name)

(* ------------------------------------------------------------------ *)
(* History auditor *)

type hop = {
  client : int;
  key : int;
  is_write : bool;
  version : int;
  started : float;
  finished : float;
  span : int;
}

type violation = {
  check : string;
  detail : string;
  offending : hop;
  expected : hop option;
  witness : Trace.event list;
}

type audit = { reads : int; writes : int; violations : violation list }

let passed a = a.violations = []

let verdict a =
  if passed a then "pass"
  else Printf.sprintf "FAIL (%d violations)" (List.length a.violations)

let witness_events ?trace ?spans hops =
  match (trace, spans) with
  | Some trace, Some spans ->
      let roots = Hashtbl.create 4 in
      List.iter
        (fun h ->
          if h.span >= 0 then
            match root_of spans h.span with
            | Some r -> Hashtbl.replace roots r ()
            | None -> ())
        hops;
      if Hashtbl.length roots = 0 then []
      else
        let acc = ref [] in
        Trace.iter trace (fun (e : Trace.event) ->
            if e.span >= 0 then
              match root_of spans e.span with
              | Some r when Hashtbl.mem roots r -> acc := e :: !acc
              | _ -> ());
        List.rev !acc
  | _ -> []

let indices (hs : hop array) keep =
  let count = Array.fold_left (fun n h -> if keep h then n + 1 else n) 0 hs in
  let out = Array.make count 0 and n = ref 0 in
  Array.iteri
    (fun i h ->
      if keep h then begin
        out.(!n) <- i;
        incr n
      end)
    hs;
  out

(* Each guarantee is one rule: a read must observe at least the best
   version among the hops of its group that finished strictly before
   it started: the highest, and of equal versions the first in [hs]
   (which [audit_history] orders by start).  Groups are the classes
   of [group], an order on hop indices.  The hops satisfying [member]
   are sorted by group, then finish time, with a running best per
   group, so [missed r] is one binary search: the index of the hop
   read [r] should have observed when it observed less, else -1. *)
let rule (hs : hop array) ~member ~group =
  let by = indices hs member in
  Array.sort
    (fun i j ->
      match group i j with
      | 0 -> Float.compare hs.(i).finished hs.(j).finished
      | c -> c)
    by;
  let best = Array.copy by in
  for k = 1 to Array.length by - 1 do
    if group by.(k) by.(k - 1) = 0 then
      let b = best.(k - 1) and i = by.(k) in
      let vb = hs.(b).version and vi = hs.(i).version in
      best.(k) <- (if vi > vb || (vi = vb && i < b) then i else b)
  done;
  fun r ->
    let t = hs.(r).started in
    let lo = ref 0 and hi = ref (Array.length by) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = group by.(mid) r in
      if c < 0 || (c = 0 && hs.(by.(mid)).finished < t) then lo := mid + 1
      else hi := mid
    done;
    if !lo = 0 then -1
    else
      let e = best.(!lo - 1) in
      if group e r = 0 && hs.(r).version < hs.(e).version then e else -1

let by_key (hs : hop array) i j = compare hs.(i).key hs.(j).key
let stale_rule hs = rule hs ~member:(fun h -> h.is_write) ~group:(by_key hs)

let stale_reads hops =
  let hs = Array.of_list hops in
  let missed = stale_rule hs and n = ref 0 in
  Array.iteri (fun i h -> if (not h.is_write) && missed i >= 0 then incr n) hs;
  !n

let audit_history ?trace ?spans hops =
  let by_start a b = Float.compare a.started b.started in
  let hs = Array.of_list (List.stable_sort by_start hops) in
  let reads = indices hs (fun h -> not h.is_write) in
  let by_session i j =
    match compare hs.(i).client hs.(j).client with
    | 0 -> by_key hs i j
    | c -> c
  in
  let stale = stale_rule hs
  and own_writes = rule hs ~member:(fun h -> h.is_write) ~group:by_session
  and own_reads =
    rule hs ~member:(fun h -> not h.is_write) ~group:by_session
  in
  let found = ref [] in
  let flag check missed detail i =
    match missed i with
    | -1 -> ()
    | e ->
        let r = hs.(i) and e = hs.(e) in
        let detail = detail r e and expected = Some e in
        let witness = witness_events ?trace ?spans [ r; e ] in
        found := { check; detail; offending = r; expected; witness } :: !found
  in
  (* Reads in start order, a read's stale-read before its
     read-your-writes; then every monotonic-reads violation. *)
  Array.iter
    (fun i ->
      flag "stale-read" stale
        (fun r w ->
          Printf.sprintf
            "read of key %d by client %d returned version %d, but version \
             %d committed at t=%g, before the read started at t=%g"
            r.key r.client r.version w.version w.finished r.started)
        i;
      flag "read-your-writes" own_writes
        (fun r w ->
          Printf.sprintf
            "client %d read version %d of key %d after its own write of \
             version %d finished at t=%g"
            r.client r.version r.key w.version w.finished)
        i)
    reads;
  Array.iter
    (flag "monotonic-reads" own_reads (fun r p ->
         Printf.sprintf
           "client %d observed version %d of key %d at t=%g after observing \
            version %d at t=%g"
           r.client r.version r.key r.started p.version p.finished))
    reads;
  {
    reads = Array.length reads;
    writes = Array.length hs - Array.length reads;
    violations = List.rev !found;
  }
