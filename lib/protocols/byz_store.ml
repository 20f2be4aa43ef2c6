module Engine = Sim.Engine
module Bitset = Quorum.Bitset

type msg =
  | Read_req of { op : int }
  | Read_rep of { op : int; version : int; value : int }
  | Write_req of { op : int; version : int; value : int }
  | Write_ack of { op : int }

type kind = Read_op | Write_op of int

type op = {
  id : int;
  client : int;
  kind : kind;
  started : float;
  waiting_for : Bitset.t;
  mutable replies : (int * int * int) list;  (** replica, version, value *)
  mutable write_version : int;
  mutable phase : [ `Version | `Install ];
}

type t = {
  system : Quorum.System.t;
  f : int;
  byzantine : bool array;
  timeout : float;
  engine : msg Engine.t;
  ops : (int, op) Hashtbl.t;
  mutable next_op : int;
  replicas : (int * int) array;  (** per replica (version, value) *)
  mutable reads_ok : int;
  mutable writes_ok : int;
  mutable timeouts : int;
  mutable unavailable : int;
  mutable fabricated_reads : int;
  mutable inconclusive_reads : int;
  mutable legitimate_values : int list;
      (** every value ever written: the integrity monitor *)
  mutable history : Obs.Trace_analysis.hop list;  (** newest first *)
}

let reads_ok t = t.reads_ok
let writes_ok t = t.writes_ok
let timeouts t = t.timeouts
let unavailable t = t.unavailable
let fabricated_reads t = t.fabricated_reads
let inconclusive_reads t = t.inconclusive_reads
let history t = List.rev t.history
let stale_reads t = Obs.Trace_analysis.stale_reads t.history

(* The register has a single logical cell: hops use key 0. *)
let record_hop t op ~is_write version =
  t.history <-
    {
      Obs.Trace_analysis.client = op.client;
      key = 0;
      is_write;
      version;
      started = op.started;
      finished = Engine.now t.engine;
      span = -1;
    }
    :: t.history

let start t ~client kind =
  let engine = t.engine in
  if t.byzantine.(client) then
    invalid_arg "Byz_store: clients must be correct replicas";
  if not (Engine.is_live engine client) then
    t.unavailable <- t.unavailable + 1
  else begin
    let live = Engine.live_set engine in
    match t.system.Quorum.System.select (Engine.rng engine) ~live with
    | None -> t.unavailable <- t.unavailable + 1
    | Some quorum ->
        let id = t.next_op in
        t.next_op <- t.next_op + 1;
        let op =
          {
            id;
            client;
            kind;
            started = Engine.now engine;
            waiting_for = Bitset.copy quorum;
            replies = [];
            write_version = 0;
            phase = `Version;
          }
        in
        Hashtbl.add t.ops id op;
        Bitset.iter
          (fun j -> Engine.send engine ~src:client ~dst:j (Read_req { op = id }))
          quorum;
        ignore
          (Engine.timer engine ~node:client ~delay:t.timeout (fun () ->
               if Hashtbl.mem t.ops id then begin
                 Hashtbl.remove t.ops id;
                 t.timeouts <- t.timeouts + 1
               end))
  end

let write t ~client ~value =
  t.legitimate_values <- value :: t.legitimate_values;
  start t ~client (Write_op value)

let read t ~client = start t ~client Read_op

(* Highest version vouched by at least f+1 identical (version, value)
   replies; the protocol's masking core. *)
let vouched_result t op =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (_, version, value) ->
      let key = (version, value) in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    op.replies;
  Hashtbl.fold
    (fun (version, value) count best ->
      if count >= t.f + 1 then
        match best with
        | Some (bv, _) when bv >= version -> best
        | _ -> Some (version, value)
      else best)
    counts None

let finish_read t op =
  Hashtbl.remove t.ops op.id;
  t.reads_ok <- t.reads_ok + 1;
  let version, value =
    match vouched_result t op with
    | Some vv -> vv
    | None ->
        t.inconclusive_reads <- t.inconclusive_reads + 1;
        (0, 0)
  in
  if not (List.mem value t.legitimate_values) then
    t.fabricated_reads <- t.fabricated_reads + 1;
  record_hop t op ~is_write:false version

(* The (f + 1)-th highest version among the replies, 0 when fewer than
   f + 1 replied.  At most f of them lie, so a correct replica holds at
   least this version, and over an f-masking system at least f + 1
   correct members of the intersection hold the last completed
   write's: one more than this is newer than every completed write. *)
let version_floor t op =
  let versions = List.map (fun (_, version, _) -> version) op.replies in
  match List.nth_opt (List.sort (fun a b -> compare b a) versions) t.f with
  | Some v -> v
  | None -> 0

let begin_install t engine op value =
  let version =
    match vouched_result t op with
    | Some (v, _) -> v + 1
    | None -> version_floor t op + 1
  in
  let live = Engine.live_set engine in
  match t.system.Quorum.System.select (Engine.rng engine) ~live with
  | None ->
      Hashtbl.remove t.ops op.id;
      t.unavailable <- t.unavailable + 1
  | Some wq ->
      op.phase <- `Install;
      op.write_version <- version;
      op.replies <- [];
      Bitset.clear op.waiting_for;
      Bitset.union_into ~dst:op.waiting_for wq;
      Bitset.iter
        (fun j ->
          Engine.send engine ~src:op.client ~dst:j
            (Write_req { op = op.id; version; value }))
        wq

let handlers t : msg Engine.handlers =
  {
    on_message =
      (fun engine ~node ~src msg ->
        match msg with
        | Read_req { op } ->
            let version, value =
              if t.byzantine.(node) then
                (* Adaptive coordinated attack: all Byzantine replicas
                   fabricate the same ever-growing version (keyed on
                   the operation counter so colluders agree without
                   extra messages) with a bogus value. *)
                ((max_int / 2) + t.next_op, 0xBAD)
              else t.replicas.(node)
            in
            Engine.send engine ~src:node ~dst:src
              (Read_rep { op; version; value })
        | Read_rep { op = op_id; version; value } ->
            (match Hashtbl.find_opt t.ops op_id with
            | None -> ()
            | Some op when op.phase = `Version ->
                if Bitset.mem op.waiting_for src then begin
                  Bitset.remove op.waiting_for src;
                  op.replies <- (src, version, value) :: op.replies;
                  if Bitset.is_empty op.waiting_for then
                    match op.kind with
                    | Read_op -> finish_read t op
                    | Write_op v -> begin_install t engine op v
                end
            | Some _ -> ())
        | Write_req { op; version; value } ->
            if not t.byzantine.(node) then begin
              let current, _ = t.replicas.(node) in
              if version > current then t.replicas.(node) <- (version, value)
            end;
            Engine.send engine ~src:node ~dst:src (Write_ack { op })
        | Write_ack { op = op_id } ->
            (match Hashtbl.find_opt t.ops op_id with
            | None -> ()
            | Some op when op.phase = `Install ->
                if Bitset.mem op.waiting_for src then begin
                  Bitset.remove op.waiting_for src;
                  if Bitset.is_empty op.waiting_for then begin
                    Hashtbl.remove t.ops op.id;
                    t.writes_ok <- t.writes_ok + 1;
                    record_hop t op ~is_write:true op.write_version
                  end
                end
            | Some _ -> ()));
    on_crash =
      (fun _ ~node ->
        let doomed =
          Hashtbl.fold
            (fun _ op acc -> if op.client = node then op :: acc else acc)
            t.ops []
        in
        List.iter
          (fun op ->
            Hashtbl.remove t.ops op.id;
            t.timeouts <- t.timeouts + 1)
          doomed);
    on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
  }

let create engine ~system ~f ~byzantine ~timeout =
  let n = system.Quorum.System.n in
  if f < 0 then invalid_arg "Byz_store.create: f < 0";
  let byz = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Byz_store.create: bad replica id";
      byz.(i) <- true)
    byzantine;
  if Engine.nodes engine <> n then
    invalid_arg "Byz_store.create: engine size mismatch";
  let t =
    {
      system;
      f;
      byzantine = byz;
      timeout;
      engine;
      ops = Hashtbl.create 32;
      next_op = 0;
      replicas = Array.make n (0, 0);
      reads_ok = 0;
      writes_ok = 0;
      timeouts = 0;
      unavailable = 0;
      fabricated_reads = 0;
      inconclusive_reads = 0;
      legitimate_values = [ 0 ];
      history = [];
    }
  in
  Engine.set_handlers engine (handlers t);
  t
