module Engine = Sim.Engine
module Durable = Sim.Durable
module Failure_detector = Sim.Failure_detector
module Span = Obs.Span
module Bitset = Quorum.Bitset
module System = Quorum.System

type msg =
  | Op_req of { op : int; epoch : int; write : (int * int) option }
      (** [write = Some (version, value)] installs; [None] reads. *)
  | Op_rep of { op : int; version : int; value : int }
  | Op_nack of { op : int; epoch : int }
  | Seal_req of { gen : int; epoch : int }
  | Seal_ack of { gen : int; epoch : int; version : int; value : int }
  | Install_req of { gen : int; epoch : int; version : int; value : int }
  | Install_ack of { gen : int }
  | Announce of { epoch : int }
  | Epoch_req  (** an amnesiac replica asking peers for their epoch *)
  | Epoch_rep of { epoch : int }

(* Timer tags: op ids are >= 0; tag -1 is the failure detector's; the
   coordinator's switch-retry tick, the replicas' unseal self-heal tick
   and the timed-mode lease-renewal tick use reserved negatives. *)
let switch_tag = -2
let unseal_tag = -3
let renew_tag = -4

(* Timed mode: the clock-skew budget added to every lease drain. *)
let skew = 0.5

type kind = Read_op | Write_op of int

type phase = Version_phase | Install_phase

type op = {
  id : int;
  client : int;
  kind : kind;
  started : float;
  mutable epoch : int;
  mutable waiting_for : Bitset.t;
      (** the phase's selected quorum, less the members that replied *)
  mutable best : int * int;
  mutable write_version : int;
  mutable phase : phase;
  mutable retries_left : int;
  mutable nacked : bool;
  mutable attempt : int;
      (** bumped on every (re)send round — the progress check only
          fires for the attempt it was armed for *)
  mutable span : int;  (** root span of the whole client operation *)
  mutable timeout_timer : int;
      (** handle of the per-op timeout armed in [start]; an op that
          leaves [ops] before it fires cancels it *)
}

type replica = {
  mutable r_epoch : int;
  mutable sealed : bool;
  mutable state : int * int;  (** version, value *)
  mutable lease_until : float;
      (** timed mode: serve only while [now <= lease_until] *)
}

type switch = {
  gen : int;
      (** unique per launched switch: two successive switches target
          the same next epoch, so acks must name the round that asked
          for them or a dead switch's stragglers would be miscounted *)
  coordinator : int;
  next_epoch : int;
  next_system : System.t;
  timed : bool;  (** lease-drain switch (no structural seal quorum) *)
  seal_acked : Bitset.t;
      (** every member that ever acked a seal — the phase completes as
          soon as the acked set contains a full old-system quorum *)
  mutable seal_acks : int;
  mutable seal_best : int * int;
  install_acked : Bitset.t;
  mutable installing : bool;
  mutable draining : bool;
      (** timed mode: leases still draining — no seals out yet *)
  mutable sw_retries : int;
      (** idempotent re-sends left in the current phase before the
          switch is abandoned (each phase gets a fresh budget) *)
  sw_span : int;  (** the ["reconfig.switch"] root span *)
}

type t = {
  engine : msg Engine.t;
  universe : int;  (** the engine's node count *)
  timeout : float;
  switch_retry : float;
      (** coordinator retry-tick interval (default [timeout]) *)
  lease : float option;
      (** timed-quorum mode: replicas serve only under an unexpired
          lease; switches drain leases instead of sealing a quorum *)
  dur : unit Durable.t;
  cell : (int * bool * (int * int)) Durable.cell;
      (** per replica: (r_epoch, sealed, state) *)
  fd : msg Failure_detector.t option;
      (** per-node suspected-live views; [None] keeps the historical
          omniscient [Engine.live_set] selection *)
  mutable configs : System.t list;  (** index = epoch *)
  mutable epoch : int;  (** latest announced epoch (global knowledge) *)
  replicas : replica array;
  ops : (int, op) Hashtbl.t;
  mutable next_op : int;
  mutable switch : switch option;
  mutable switch_gen : int;  (** generation of the next launched switch *)
  mutable epoch_switches : int;
  mutable refused_switches : int;
  mutable lease_refusals : int;
  mutable reads_ok : int;
  mutable writes_ok : int;
  mutable retries : int;
  mutable failed : int;
  mutable crash_kills : int;
  mutable history : Obs.Trace_analysis.hop list;  (** newest first *)
}

let spans t = Obs.spans (Engine.obs t.engine)
let history t = List.rev t.history

(* An op that ends takes its timeout timer out of the queue, where it
   would only fire to find no op. *)
let remove_op t (op : op) =
  Hashtbl.remove t.ops op.id;
  Engine.cancel t.engine op.timeout_timer

(* Persist a replica's whole durable image: epoch, seal flag, state. *)
let persist t ~node =
  let r = t.replicas.(node) in
  Durable.set t.cell ~node
    ~now:(Engine.now t.engine)
    (r.r_epoch, r.sealed, r.state)

(* Write-ahead reply: the durable image is fsynced before the message
   that makes it observable (write ack, seal ack, install ack) leaves,
   so no acknowledged transition is ever lost to an amnesiac crash. *)
let reply_after_fsync t ~node ~dst msg =
  let durable_at = persist t ~node in
  if durable_at <= Engine.now t.engine then
    Engine.send t.engine ~src:node ~dst msg
  else
    Durable.send_when_durable t.engine ~node ~durable_at ~span:"reconfig.fsync"
      (fun () -> Engine.send t.engine ~src:node ~dst msg)

let current_epoch t = t.epoch
let epoch_switches t = t.epoch_switches
let switch_in_flight t =
  match t.switch with Some _ -> true | None -> false
let lease_refusals t = t.lease_refusals
let refused_switches t = t.refused_switches
let reads_ok t = t.reads_ok
let writes_ok t = t.writes_ok
let retries t = t.retries
let failed t = t.failed
let client_crash_kills t = t.crash_kills
let stale_reads t = Obs.Trace_analysis.stale_reads t.history

let fd_view t ~node =
  Option.map (fun fd -> Failure_detector.view fd ~node) t.fd

let config_of_epoch t epoch =
  (* configs is newest-first. *)
  let from_newest = List.length t.configs - 1 - epoch in
  List.nth t.configs from_newest

(* The set of nodes [node] believes live: its failure-detector view
   when the register carries one, the engine's omniscient live-set
   otherwise (the historical behaviour). *)
let live_view t ~node =
  match t.fd with
  | Some fd -> Failure_detector.view fd ~node
  | None -> Engine.live_set t.engine

(* Select a quorum of [system] among the members [node] believes live
   (spares beyond [system.n] idle). *)
let select_live_quorum t ~node (system : System.t) =
  let live = live_view t ~node in
  let members = Bitset.create system.System.n in
  for i = 0 to system.System.n - 1 do
    if Bitset.mem live i then Bitset.add members i
  done;
  system.System.select (Engine.rng t.engine) ~live:members

(* --- Client side ---------------------------------------------------- *)

(* Select a quorum in the configuration of the client's current view
   and start (or restart) the version phase of [op].  Transient
   unavailability (no live quorum right now — e.g. churn ahead of the
   membership controller's next repair) is retried on the same backoff
   as a NACK; the per-op timer bounds the total wait. *)
let rec launch t (op : op) =
  op.epoch <- t.epoch;
  let system = config_of_epoch t op.epoch in
  match select_live_quorum t ~node:op.client system with
  | None -> retry_later t op
  | Some quorum ->
      op.phase <- Version_phase;
      op.best <- (0, 0);
      op.nacked <- false;
      op.waiting_for <- Bitset.copy quorum;
      Engine.with_span_ctx t.engine op.span (fun () ->
          Bitset.iter
            (fun j ->
              Engine.send t.engine ~src:op.client ~dst:j
                (Op_req { op = op.id; epoch = op.epoch; write = None }))
            quorum);
      arm_progress_check t op

(* A round of requests can be silently swallowed (message loss, a
   replica dying before replying): if the attempt armed here is still
   the current one — no reply completed the phase, no NACK scheduled a
   relaunch — give up on it and retry.  The delay clears a healthy
   round trip, so the check only fires for genuinely stuck rounds. *)
and arm_progress_check t (op : op) =
  op.attempt <- op.attempt + 1;
  let attempt = op.attempt in
  Engine.schedule t.engine
    ~time:(Engine.now t.engine +. 4.0)
    (fun () ->
      match Hashtbl.find_opt t.ops op.id with
      | Some op' when op' == op && op.attempt = attempt && not op.nacked ->
          retry_later t op
      | Some _ | None -> ())

and retry_later t (op : op) =
  (* NACKed (sealed replica, expired lease, stale epoch) or no live
     quorum: back off and relaunch under the then-current
     configuration. *)
  if op.retries_left = 0 then begin
    remove_op t op;
    t.failed <- t.failed + 1;
    Span.finish (spans t)
      ~time:(Engine.now t.engine)
      ~status:(Span.Error "exhausted") op.span
  end
  else begin
    op.retries_left <- op.retries_left - 1;
    t.retries <- t.retries + 1;
    Engine.schedule t.engine
      ~time:(Engine.now t.engine +. 3.0)
      (fun () -> if Hashtbl.mem t.ops op.id then launch t op)
  end

let start t ~client kind =
  let engine = t.engine in
  if not (Engine.is_live engine client) then t.failed <- t.failed + 1
  else begin
    let id = t.next_op in
    t.next_op <- t.next_op + 1;
    let op =
      {
        id;
        client;
        kind;
        started = Engine.now engine;
        epoch = t.epoch;
        waiting_for = Bitset.create t.universe;
        best = (0, 0);
        write_version = 0;
        phase = Version_phase;
        retries_left = 12;
        nacked = false;
        attempt = 0;
        span = -1;
        timeout_timer = -1;
      }
    in
    op.span <-
      Span.start (spans t) ~time:op.started ~node:client
        (match kind with
        | Read_op -> "reconfig.read"
        | Write_op _ -> "reconfig.write");
    Hashtbl.add t.ops id op;
    launch t op;
    if Hashtbl.mem t.ops id then
      op.timeout_timer <-
        Engine.with_span_ctx engine op.span (fun () ->
            Engine.timer engine ~node:client ~delay:t.timeout ~tag:id)
  end

let read t ~client = start t ~client Read_op
let write t ~client ~value = start t ~client (Write_op value)

(* The register has a single logical cell; hops use key 0 and the
   version as the value observed/installed. *)
let record_hop t (op : op) ~now ~is_write version =
  t.history <-
    {
      Obs.Trace_analysis.client = op.client;
      key = 0;
      is_write;
      version;
      started = op.started;
      finished = now;
      span = op.span;
    }
    :: t.history

let finish_read t (op : op) =
  remove_op t op;
  t.reads_ok <- t.reads_ok + 1;
  let now = Engine.now t.engine in
  Span.finish (spans t) ~time:now op.span;
  record_hop t op ~now ~is_write:false (fst op.best)

let begin_install t (op : op) =
  match op.kind with
  | Read_op -> finish_read t op
  | Write_op value ->
      let system = config_of_epoch t op.epoch in
      (match select_live_quorum t ~node:op.client system with
      | None -> retry_later t op
      | Some wq ->
          let version = fst op.best + 1 in
          op.write_version <- version;
          op.phase <- Install_phase;
          op.waiting_for <- Bitset.copy wq;
          Engine.with_span_ctx t.engine op.span (fun () ->
              Bitset.iter
                (fun j ->
                  Engine.send t.engine ~src:op.client ~dst:j
                    (Op_req
                       {
                         op = op.id;
                         epoch = op.epoch;
                         write = Some (version, value);
                       }))
                wq);
          arm_progress_check t op)

(* --- Reconfiguration -------------------------------------------------- *)

let arm_switch_timer t ~coordinator =
  Engine.set_timer t.engine ~background:true ~node:coordinator
    ~delay:t.switch_retry ~tag:switch_tag

let arm_unseal_timer t ~node =
  (* Cadence only — the unseal tick re-arms while the sealing switch
     is alive, so safety never depends on this delay.  Tracking the
     coordinator's retry tick keeps orphaned seals (a crashed
     coordinator cannot re-announce) from refusing service long after
     their switch died. *)
  Engine.set_timer t.engine ~background:true ~node
    ~delay:(2.0 *. t.switch_retry) ~tag:unseal_tag

let abandon_switch ?(reason = "abandoned") t sw =
  (* Give up: drop the switch and re-announce the old epoch so sealed
     replicas reopen for service. *)
  t.switch <- None;
  t.refused_switches <- t.refused_switches + 1;
  Span.finish (spans t) ~time:(Engine.now t.engine)
    ~status:(Span.Error reason) sw.sw_span;
  for j = 0 to t.universe - 1 do
    Engine.send t.engine ~src:sw.coordinator ~dst:j
      (Announce { epoch = t.epoch })
  done

let commit_switch t sw =
  t.configs <- sw.next_system :: t.configs;
  t.epoch <- sw.next_epoch;
  t.epoch_switches <- t.epoch_switches + 1;
  t.switch <- None;
  Span.finish (spans t) ~time:(Engine.now t.engine) sw.sw_span;
  for j = 0 to t.universe - 1 do
    Engine.send t.engine ~src:sw.coordinator ~dst:j
      (Announce { epoch = sw.next_epoch })
  done

(* Per-phase retry budget: [phase_retries] idempotent re-send rounds,
   [switch_retry] apart, before the switch is abandoned. *)
let phase_retries = 5

(* Seal round done (a structural quorum of the old system reported, or
   the timed drain expired with at least one report): install the
   freshest sealed state on the new system.  The install is broadcast
   to every new member and commits as soon as the acked set contains a
   full new-system quorum, so individual stragglers never stall it. *)
let begin_switch_install t sw =
  sw.installing <- true;
  sw.sw_retries <- phase_retries;
  let version, value = sw.seal_best in
  for j = 0 to sw.next_system.System.n - 1 do
    Engine.send t.engine ~src:sw.coordinator ~dst:j
      (Install_req { gen = sw.gen; epoch = sw.next_epoch; version; value })
  done

let resend_unacked t sw =
  if sw.installing then begin
    let version, value = sw.seal_best in
    for j = 0 to sw.next_system.System.n - 1 do
      if not (Bitset.mem sw.install_acked j) then
        Engine.send t.engine ~src:sw.coordinator ~dst:j
          (Install_req
             { gen = sw.gen; epoch = sw.next_epoch; version; value })
    done
  end
  else
    let old_system = config_of_epoch t t.epoch in
    for j = 0 to old_system.System.n - 1 do
      if not (Bitset.mem sw.seal_acked j) then
        Engine.send t.engine ~src:sw.coordinator ~dst:j
          (Seal_req { gen = sw.gen; epoch = t.epoch })
    done

(* Even if every currently-live old member acked on top of the acks
   already gathered, would the seal still lack a structural quorum?
   If so, waiting the budget out cannot help (only a recovery could),
   and a timed switch may fall back to temporal overlap right away. *)
let quorum_unreachable t sw =
  let old_system = config_of_epoch t t.epoch in
  let live = live_view t ~node:sw.coordinator in
  let reachable = Bitset.copy sw.seal_acked in
  for j = 0 to old_system.System.n - 1 do
    if Bitset.mem live j then Bitset.add reachable j
  done;
  not (old_system.System.avail reachable)

(* The coordinator's retry tick: seal and install handlers are
   idempotent (re-sealing re-acks, re-installing always acks), so
   members that were down or cut off when the first round went out are
   simply asked again once they return — each phase completes on {e
   any} quorum's worth of acks, so the tick only has to reach the
   stragglers.  A bounded number of rounds per phase keeps a switch
   from outliving a permanently lost configuration; a timed switch
   whose seal budget runs out with at least one report installs
   best-effort (temporal overlap standing in for the structural
   quorum — see the interface caveat). *)
let switch_tick t ~node =
  match t.switch with
  | Some sw when sw.coordinator = node ->
      if sw.timed && sw.draining then
        (* The drain deadline drives the next step; stay armed. *)
        arm_switch_timer t ~coordinator:node
      else if
        sw.sw_retries = 0
        || (sw.timed && (not sw.installing) && quorum_unreachable t sw)
      then
        if sw.timed && (not sw.installing) && sw.seal_acks > 0 then begin
          begin_switch_install t sw;
          arm_switch_timer t ~coordinator:node
        end
        else if sw.sw_retries = 0 then abandon_switch t sw
        else begin
          (* Timed, no reports yet, old quorums unreachable: keep
             re-asking — a recovery may still bring a reporter back. *)
          sw.sw_retries <- sw.sw_retries - 1;
          resend_unacked t sw;
          arm_switch_timer t ~coordinator:node
        end
      else begin
        sw.sw_retries <- sw.sw_retries - 1;
        resend_unacked t sw;
        arm_switch_timer t ~coordinator:node
      end
  | Some _ | None -> ()

(* A sealed replica's self-heal tick.  Sealing must not outlive the
   switch that asked for it (a dead coordinator would otherwise leave
   the replica refusing service forever) — but unsealing while that
   switch is still in flight could let an old-epoch write slip past
   the seal quorum and be lost by the install.  The tick therefore
   re-arms while the sealing switch is alive (global knowledge
   standing in for a coordinator lease, like [t.epoch]) and unseals
   only once it is gone. *)
(* Timed mode: a replica's lease-renewal tick.  Renewal is withheld
   while a switch is in flight (global knowledge standing in for the
   coordinator's renewal grant, like [t.epoch]), so the leases of every
   replica the seal round cannot reach drain before the timed install
   — renew-before-expiry in calm times, conservative refusal during a
   switch. *)
let renew_tick t ~node =
  match t.lease with
  | None -> ()
  | Some d ->
      let r = t.replicas.(node) in
      (match t.switch with
      | Some _ -> ()  (* withheld: let the lease drain *)
      | None -> r.lease_until <- Engine.now t.engine +. d);
      Engine.set_timer t.engine ~background:true ~node ~delay:(d /. 3.0)
        ~tag:renew_tag

let unseal_tick t ~node =
  let r = t.replicas.(node) in
  if r.sealed then
    match t.switch with
    | Some sw when sw.next_epoch = r.r_epoch + 1 ->
        arm_unseal_timer t ~node
    | Some _ | None ->
        r.sealed <- false;
        ignore (persist t ~node)

let seal_all t sw =
  let old_system = config_of_epoch t t.epoch in
  for j = 0 to old_system.System.n - 1 do
    Engine.send t.engine ~src:sw.coordinator ~dst:j
      (Seal_req { gen = sw.gen; epoch = t.epoch })
  done

(* The timed drain deadline: every lease granted before the switch
   started has expired (plus the skew budget) and renewals were
   withheld throughout, so no old-epoch quorum can still commit — the
   old members served right up to their individual expiries and now
   refuse.  Only at this point are they asked to seal and report:
   every report reflects the member's final old-epoch state, including
   writes committed during the drain.  The install fires as soon as a
   structural quorum of reports is in (then freshness is guaranteed by
   intersection), or best-effort on budget exhaustion — refusing
   conservatively when {e nobody} reported (a blind install could lose
   every committed write; that abandon is the "drain-empty" status). *)
let drain_deadline t sw =
  match t.switch with
  | Some sw' when sw' == sw && not sw.installing ->
      sw.draining <- false;
      sw.sw_retries <- phase_retries;
      seal_all t sw
  | Some _ | None -> ()

let launch_switch t ~coordinator ~next_system ~timed =
  let now = Engine.now t.engine in
  t.switch_gen <- t.switch_gen + 1;
  let sw =
    {
      gen = t.switch_gen;
      coordinator;
      next_epoch = t.epoch + 1;
      next_system;
      timed;
      seal_acked = Bitset.create t.universe;
      seal_acks = 0;
      seal_best = (0, 0);
      install_acked = Bitset.create t.universe;
      installing = false;
      draining = timed;
      sw_retries = phase_retries;
      sw_span =
        Span.start (spans t) ~time:now ~node:coordinator
          "reconfig.switch";
    }
  in
  t.switch <- Some sw;
  if timed then (
    (* No seals yet: members keep serving the old epoch until their
       leases expire (renewals are withheld from now on). *)
    match t.lease with
    | Some d ->
        Engine.schedule t.engine ~time:(now +. d +. skew) (fun () ->
            drain_deadline t sw)
    | None -> assert false)
  else seal_all t sw;
  arm_switch_timer t ~coordinator

let reconfigure t ~coordinator next_system =
  if next_system.System.n > t.universe then
    invalid_arg "Reconfig.reconfigure: configuration exceeds universe";
  match t.switch with
  | Some _ -> t.refused_switches <- t.refused_switches + 1
  | None ->
      launch_switch t ~coordinator ~next_system
        ~timed:(Option.is_some t.lease)

(* Any old-system quorum's worth of seal reports suffices: committed
   old-epoch writes live on full quorums, and every quorum intersects
   the reported one, so the max over reported versions is fresh.
   (Sealing everyone costs no extra availability — a sealed quorum
   already intersects, and thereby blocks, every other quorum.) *)
let on_seal_ack t sw ~src ~version ~value =
  if (not sw.installing) && not (Bitset.mem sw.seal_acked src) then begin
    Bitset.add sw.seal_acked src;
    sw.seal_acks <- sw.seal_acks + 1;
    if version > fst sw.seal_best then sw.seal_best <- (version, value);
    if (config_of_epoch t t.epoch).System.avail sw.seal_acked then
      begin_switch_install t sw
  end

let on_install_ack t sw ~src =
  if sw.installing && not (Bitset.mem sw.install_acked src) then begin
    Bitset.add sw.install_acked src;
    if sw.next_system.System.avail sw.install_acked then commit_switch t sw
  end

(* --- Handlers --------------------------------------------------------- *)

let handlers t : msg Engine.handlers =
  {
    on_message =
      (fun engine ~node ~src msg ->
        match msg with
        | Op_req { op; epoch; write } ->
            let r = t.replicas.(node) in
            (* A client's epoch is always a committed one (clients tag
               ops with the announced epoch), so a replica behind it
               simply missed the announce: adopt and serve.  Unsealing
               is safe for the same reason — a newer committed epoch
               means the switch that sealed this replica already
               finished.  Per-member catch-up staleness is covered by
               intersection: reads take the max over a full quorum,
               which meets the install quorum. *)
            if epoch > r.r_epoch then begin
              r.r_epoch <- epoch;
              r.sealed <- false
            end;
            let lease_expired =
              match t.lease with
              | None -> false
              | Some _ -> Engine.now engine > r.lease_until
            in
            if epoch <> r.r_epoch || r.sealed || lease_expired then begin
              if lease_expired && epoch = r.r_epoch && not r.sealed then
                t.lease_refusals <- t.lease_refusals + 1;
              Engine.send engine ~src:node ~dst:src
                (Op_nack { op; epoch = r.r_epoch })
            end
            else begin
              match write with
              | Some (version, value) ->
                  if version > fst r.state then r.state <- (version, value);
                  let version, value = r.state in
                  reply_after_fsync t ~node ~dst:src
                    (Op_rep { op; version; value })
              | None ->
                  let version, value = r.state in
                  Engine.send engine ~src:node ~dst:src
                    (Op_rep { op; version; value })
            end
        | Op_rep { op = op_id; version; value } ->
            (match Hashtbl.find_opt t.ops op_id with
            | None -> ()
            | Some op ->
                (* A reply counts once, from a member the phase still
                   awaits; the phase completes when none is left.  A
                   straggler from a round under a larger system may lie
                   beyond the current round's set: ignore it. *)
                if
                  src < Bitset.capacity op.waiting_for
                  && Bitset.mem op.waiting_for src
                then begin
                  Bitset.remove op.waiting_for src;
                  if version > fst op.best then op.best <- (version, value);
                  if Bitset.is_empty op.waiting_for && not op.nacked then
                    match op.phase with
                    | Version_phase -> begin_install t op
                    | Install_phase ->
                        remove_op t op;
                        t.writes_ok <- t.writes_ok + 1;
                        let now = Engine.now engine in
                        Span.finish (spans t) ~time:now op.span;
                        record_hop t op ~now ~is_write:true op.write_version
                end)
        | Op_nack { op = op_id; epoch = _ } ->
            (match Hashtbl.find_opt t.ops op_id with
            | None -> ()
            | Some op ->
                if not op.nacked then begin
                  op.nacked <- true;
                  retry_later t op
                end)
        | Seal_req { gen; epoch } ->
            (* A seal for a {e newer} epoch means this replica missed
               announces while down: the coordinator only seals at the
               committed global epoch, so adopting it is processing
               the missed Announce.  Safe to count: the seal quorum
               still intersects every old-epoch write quorum in a
               member that served the freshest write, and the max over
               the quorum's reported versions includes it.  Seals for
               {e older} epochs (a stale coordinator) stay ignored. *)
            let r = t.replicas.(node) in
            if epoch >= r.r_epoch then begin
              r.r_epoch <- epoch;
              r.sealed <- true;
              let version, value = r.state in
              reply_after_fsync t ~node ~dst:src
                (Seal_ack { gen; epoch; version; value });
              arm_unseal_timer t ~node
            end
        | Seal_ack { gen; epoch = _; version; value } ->
            (* Acks name the round that asked for them: a dead
               switch's straggler reports the state it had {e then},
               which its same-epoch successor must not count. *)
            (match t.switch with
            | Some sw when sw.gen = gen -> on_seal_ack t sw ~src ~version ~value
            | Some _ | None -> ())
        | Install_req { gen; epoch = _; version; value } ->
            (* State transfer only: the new epoch is adopted at the
               Announce, never here.  An install that bumped epochs
               and then had its switch die would wedge the register —
               replicas ahead of the committed epoch refuse every
               later seal, and no switch can ever gather reports
               again. *)
            let r = t.replicas.(node) in
            if version > fst r.state then r.state <- (version, value);
            reply_after_fsync t ~node ~dst:src (Install_ack { gen })
        | Install_ack { gen } ->
            (match t.switch with
            | Some sw when sw.gen = gen -> on_install_ack t sw ~src
            | Some _ | None -> ())
        | Announce { epoch } ->
            let r = t.replicas.(node) in
            if epoch >= r.r_epoch then begin
              r.r_epoch <- epoch;
              r.sealed <- false;
              (* Fire-and-forget: nothing observes this transition
                 before it settles, so losing it only means re-learning
                 the epoch on the next announce or Epoch_rep. *)
              ignore (persist t ~node)
            end
        | Epoch_req ->
            Engine.send engine ~src:node ~dst:src
              (Epoch_rep { epoch = t.replicas.(node).r_epoch })
        | Epoch_rep { epoch } ->
            (* Adopt strictly newer epochs only: an equal-epoch reply
               must not unseal a replica whose seal may be counted by
               an in-flight switch. *)
            let r = t.replicas.(node) in
            if epoch > r.r_epoch then begin
              r.r_epoch <- epoch;
              r.sealed <- false;
              ignore (persist t ~node)
            end);
    on_timer =
      (fun engine ~node ~tag ->
        if
          match t.fd with
          | Some fd -> Failure_detector.on_timer fd ~node ~tag
          | None -> false
        then ()
        else if tag = switch_tag then switch_tick t ~node
        else if tag = unseal_tag then unseal_tick t ~node
        else if tag = renew_tag then renew_tick t ~node
        else
          match Hashtbl.find_opt t.ops tag with
          | Some op ->
              Hashtbl.remove t.ops op.id;
              t.failed <- t.failed + 1;
              Span.finish (spans t) ~time:(Engine.now engine)
                ~status:(Span.Error "timeout") op.span
          | None -> ());
    on_crash =
      (fun engine ~node ->
        Durable.crash t.dur ~node ~now:(Engine.now engine);
        (* A crashed coordinator takes its switch down with it; sealed
           replicas self-heal through their unseal tick. *)
        (match t.switch with
        | Some sw when sw.coordinator = node ->
            t.switch <- None;
            t.refused_switches <- t.refused_switches + 1;
            Span.finish (spans t)
              ~time:(Engine.now engine)
              ~status:(Span.Error "crash") sw.sw_span
        | Some _ | None -> ());
        let doomed =
          Hashtbl.fold
            (fun _ op acc -> if op.client = node then op :: acc else acc)
            t.ops []
        in
        List.iter
          (fun op ->
            remove_op t op;
            t.failed <- t.failed + 1;
            t.crash_kills <- t.crash_kills + 1;
            Span.finish (spans t)
              ~time:(Engine.now engine)
              ~status:(Span.Error "crash") op.span)
          doomed);
    on_recover =
      (fun engine ~node ~amnesia ->
        (match t.fd with
        | Some fd -> Failure_detector.on_recover fd ~node
        | None -> ());
        if amnesia then begin
          (* Restore the durable image and re-learn the current epoch
             from peers over the announce path. *)
          let r = t.replicas.(node) in
          let now = Engine.now engine in
          (match Durable.durable_value t.cell ~node ~now with
          | Some (epoch, sealed, state) ->
              r.r_epoch <- epoch;
              r.sealed <- sealed;
              r.state <- state
          | None ->
              r.r_epoch <- 0;
              r.sealed <- false;
              r.state <- (0, 0));
          for j = 0 to t.universe - 1 do
            if j <> node then Engine.send engine ~src:node ~dst:j Epoch_req
          done
        end
        else
          (* Memory intact, but announces broadcast while the node was
             down are gone: ask peers for the current epoch, or every
             op served here NACKs on epoch mismatch until the next
             switch happens to announce. *)
          for j = 0 to t.universe - 1 do
            if j <> node then
              Engine.send ~background:true engine ~src:node ~dst:j Epoch_req
          done;
        (* Timers died with the crash: a still-sealed replica needs its
           self-heal tick back, and a timed replica its renewal tick.
           The recovered node's lease restarts expired — it refuses
           service until the next renewal grant, which is withheld
           while any switch is in flight. *)
        if t.replicas.(node).sealed then arm_unseal_timer t ~node;
        match t.lease with
        | Some d ->
            t.replicas.(node).lease_until <- Engine.now engine;
            Engine.set_timer engine ~background:true ~node ~delay:(d /. 3.0)
              ~tag:renew_tag
        | None -> ());
  }

let of_config engine ?(config = Client_config.default) ?(with_fd = false)
    ?lease ?switch_retry ~initial () =
  (* [durability] and [timeout] of the record always apply; [fd] only
     when [with_fd] opts into the failure-detector layer (off by
     default: no heartbeats, omniscient selection — bit-identical to
     the historical register). *)
  let universe = Engine.nodes engine in
  let timeout = config.Client_config.timeout in
  if initial.System.n > universe then
    invalid_arg "Reconfig.of_config: configuration exceeds universe";
  let switch_retry = Option.value switch_retry ~default:timeout in
  if switch_retry <= 0.0 then invalid_arg "Reconfig.of_config: switch_retry";
  (match lease with
  | Some d when d <= 0.0 -> invalid_arg "Reconfig.of_config: lease"
  | _ -> ());
  let dur =
    Durable.create ~obs:(Engine.obs engine) ~nodes:universe
      config.Client_config.durability
  in
  let cell = Durable.cell dur ~name:"reconfig.replica" in
  let fd =
    if with_fd then
      Some
        (Failure_detector.create engine
           ~period:config.Client_config.fd.Client_config.period
           ~timeout:config.Client_config.fd.Client_config.timeout
           ~mode:(Client_config.fd_mode config) ())
    else None
  in
  let t =
    {
      engine;
      universe;
      timeout;
      switch_retry;
      lease;
      dur;
      cell;
      fd;
      configs = [ initial ];
      epoch = 0;
      replicas =
        Array.init universe (fun _ ->
            {
              r_epoch = 0;
              sealed = false;
              state = (0, 0);
              (* The first lease window opens at t = 0. *)
              lease_until =
                (match lease with Some d -> d | None -> infinity);
            });
      ops = Hashtbl.create 32;
      next_op = 0;
      switch = None;
      switch_gen = 0;
      epoch_switches = 0;
      refused_switches = 0;
      lease_refusals = 0;
      reads_ok = 0;
      writes_ok = 0;
      retries = 0;
      failed = 0;
      crash_kills = 0;
      history = [];
    }
  in
  (* Timed mode: every replica renews its own lease on a background
     tick, well before expiry. *)
  (match lease with
  | Some d ->
      for node = 0 to universe - 1 do
        Engine.set_timer engine ~background:true ~node ~delay:(d /. 3.0)
          ~tag:renew_tag
      done
  | None -> ());
  Engine.set_handlers engine (handlers t);
  t
