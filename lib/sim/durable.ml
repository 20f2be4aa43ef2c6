module Metrics = Obs.Metrics
module Prof = Obs.Prof
module Span = Obs.Span

type config = { fsync_latency : float; torn_tail : bool }

let config ?(fsync_latency = 0.0) ?(torn_tail = false) () =
  if fsync_latency < 0.0 then invalid_arg "Durable.config: fsync_latency";
  { fsync_latency; torn_tail }

let instant = config ()

type ins = {
  d_appends : Metrics.counter;
  d_cell_writes : Metrics.counter;
  d_lost : Metrics.counter;
  d_replayed : Metrics.counter;
  d_prof : Prof.t;
}

type 'e t = {
  n : int;
  cfg : config;
  ins : ins;
  logs : (float * int * 'e) list array;
      (** newest first: (durable_at, group, entry).  Records appended
          as one batch share a group id and an fsync window; crash
          damage is all-or-nothing per group. *)
  mutable next_group : int;
  mutable cell_hooks : (int -> float -> unit) list;
      (** crash propagation into every cell created from this store *)
}

let create ~obs ~nodes cfg =
  if nodes <= 0 then invalid_arg "Durable.create: nodes";
  let m = Obs.metrics obs in
  {
    n = nodes;
    cfg;
    ins =
      {
        d_appends =
          Metrics.counter m ~help:"log records appended" "durable.appends";
        d_cell_writes =
          Metrics.counter m ~help:"cell writes, by cell" "durable.cell_writes";
        d_lost =
          Metrics.counter m
            ~help:"writes destroyed by a crash, by kind (tail | torn | cell)"
            "durable.lost_writes";
        d_replayed =
          Metrics.counter m ~help:"log entries handed back by replay"
            "durable.replayed_entries";
        d_prof = Obs.prof obs;
      };
    logs = Array.make nodes [];
    next_group = 0;
    cell_hooks = [];
  }

let nodes t = t.n
let fsync_latency t = t.cfg.fsync_latency

let check_node t node name =
  if node < 0 || node >= t.n then invalid_arg ("Durable." ^ name ^ ": node")

(* --- Append-only log ------------------------------------------------ *)

let fresh_group t =
  let g = t.next_group in
  t.next_group <- g + 1;
  g

let append t ~node ~now e =
  check_node t node "append";
  Prof.enter t.ins.d_prof Prof.Durable;
  Metrics.incr t.ins.d_appends;
  let durable_at = now +. t.cfg.fsync_latency in
  t.logs.(node) <- (durable_at, fresh_group t, e) :: t.logs.(node);
  Prof.leave t.ins.d_prof Prof.Durable;
  durable_at

let append_batch t ~node ~now es =
  check_node t node "append_batch";
  match es with
  | [] -> now
  | es ->
      Prof.enter t.ins.d_prof Prof.Durable;
      Metrics.incr t.ins.d_appends ~by:(List.length es);
      let durable_at = now +. t.cfg.fsync_latency in
      let group = fresh_group t in
      (* One flush covers the whole batch: every record lands (or is
         destroyed) together, at one durable instant. *)
      List.iter
        (fun e -> t.logs.(node) <- (durable_at, group, e) :: t.logs.(node))
        es;
      Prof.leave t.ins.d_prof Prof.Durable;
      durable_at

let log_length t ~node =
  check_node t node "log_length";
  List.length t.logs.(node)

let replay t ~node ~now =
  check_node t node "replay";
  Prof.enter t.ins.d_prof Prof.Durable;
  let durable =
    List.filter (fun (at, _, _) -> at <= now) t.logs.(node)
    |> List.rev_map (fun (_, _, e) -> e)
  in
  Metrics.incr t.ins.d_replayed ~by:(List.length durable);
  Prof.leave t.ins.d_prof Prof.Durable;
  durable

(* Newest-first and durable_at is monotone in append order, so the
   in-flight writes are exactly a prefix of the list.  Records of one
   group share a durable_at, so a group is never split.  [at_of]
   projects the durable instant out of an entry (logs and cells store
   different tuple shapes). *)
let split_in_flight at_of ~now entries =
  let rec go = function
    | e :: rest when at_of e > now ->
        let lost, kept = go rest in
        (e :: lost, kept)
    | durable -> ([], durable)
  in
  go entries

let crash t ~node ~now =
  check_node t node "crash";
  Prof.enter t.ins.d_prof Prof.Durable;
  let lost, survived =
    split_in_flight (fun (at, _, _) -> at) ~now t.logs.(node)
  in
  let n_lost = List.length lost in
  let survived, torn =
    (* A torn tail only makes sense when the crash interrupted a
       flush: the partially written block damages the record before
       it — and a batched flush is damaged as a unit, so the whole
       newest surviving group goes. *)
    if t.cfg.torn_tail && n_lost > 0 then
      match survived with
      | (_, g, _) :: _ ->
          let torn, kept =
            List.partition (fun (_, g', _) -> g' = g) survived
          in
          (kept, List.length torn)
      | [] -> ([], 0)
    else (survived, 0)
  in
  t.logs.(node) <- survived;
  if n_lost > 0 then
    Metrics.incr t.ins.d_lost ~by:n_lost ~labels:[ ("kind", "tail") ];
  if torn > 0 then
    Metrics.incr t.ins.d_lost ~by:torn ~labels:[ ("kind", "torn") ];
  List.iter (fun hook -> hook node now) t.cell_hooks;
  Prof.leave t.ins.d_prof Prof.Durable

(* --- Typed cells ---------------------------------------------------- *)

type 'a cell = {
  c_cfg : config;
  c_ins : ins;
  c_writes : Metrics.counter Metrics.Handle.t;  (** [cell=name] *)
  pending : (float * 'a) list array;  (** newest first *)
  durable : 'a option array;
}

(* Promote every pending write whose fsync window has closed. *)
let settle c node ~now =
  let in_flight, landed = split_in_flight fst ~now c.pending.(node) in
  (match landed with (_, v) :: _ -> c.durable.(node) <- Some v | [] -> ());
  c.pending.(node) <- in_flight

let cell (type a) t ~name : a cell =
  let c =
    {
      c_cfg = t.cfg;
      c_ins = t.ins;
      c_writes = Metrics.Handle.counter t.ins.d_cell_writes [ ("cell", name) ];
      pending = (Array.make t.n [] : (float * a) list array);
      durable = Array.make t.n None;
    }
  in
  t.cell_hooks <-
    (fun node now ->
      settle c node ~now;
      let lost = List.length c.pending.(node) in
      if lost > 0 then
        Metrics.incr c.c_ins.d_lost ~by:lost ~labels:[ ("kind", "cell") ];
      c.pending.(node) <- [])
    :: t.cell_hooks;
  c

let set c ~node ~now v =
  Prof.enter c.c_ins.d_prof Prof.Durable;
  Metrics.Handle.incr c.c_writes;
  let durable_at =
    if c.c_cfg.fsync_latency = 0.0 then begin
      c.durable.(node) <- Some v;
      now
    end
    else begin
      settle c node ~now;
      let durable_at = now +. c.c_cfg.fsync_latency in
      c.pending.(node) <- (durable_at, v) :: c.pending.(node);
      durable_at
    end
  in
  Prof.leave c.c_ins.d_prof Prof.Durable;
  durable_at

let get c ~node =
  match c.pending.(node) with
  | (_, v) :: _ -> Some v
  | [] -> c.durable.(node)

let durable_value c ~node ~now =
  settle c node ~now;
  c.durable.(node)

(* --- Write-ahead replies -------------------------------------------- *)

let send_when_durable engine ~node ~durable_at ~span send =
  let now = Engine.now engine in
  (* The wait for the fsync is a span of its own, child of the operation
     the triggering message belongs to, so a latency breakdown can
     attribute the delay to durability rather than queueing. *)
  let parent = Engine.span_ctx engine in
  let fspan =
    if parent >= 0 then
      Span.start (Obs.spans (Engine.obs engine)) ~time:now ~node ~parent span
    else -1
  in
  let crashes = Engine.crashes engine ~node in
  Engine.schedule engine ~time:durable_at (fun () ->
      let ok =
        Engine.crashes engine ~node = crashes && Engine.is_live engine node
      in
      if fspan >= 0 then
        Span.finish
          (Obs.spans (Engine.obs engine))
          ~time:durable_at
          ~status:(if ok then Span.Ok else Span.Error "crash")
          fspan;
      if ok then send ())
