open Quorum
module Htriang = Core.Htriang

type view = Omniscient | Fd

type t = {
  engine : Reconfig.msg Sim.Engine.t;
  reconfig : Reconfig.t;
  universe : int;  (* the engine's node count *)
  margin : int;
  view : view;
  eff_live : bool array;
      (* the controller's hysteresis-filtered liveness opinion *)
  streak : int array;  (* consecutive ticks disagreeing with eff_live *)
  mutable tri : Htriang.t;
  mutable place : int array;
  mutable proposed : (int * Htriang.t * int array) option;
      (* (epoch expected once committed, triangle, placement) *)
  mutable proposals : int;
  mutable grows : int;
  mutable shrinks : int;
  mutable replacements : int;
  mutable false_evictions : int;
      (* proposals that dropped a node the engine oracle knew was live *)
}

(* The adopted (triangle, placement) as a system over the whole
   universe: logical element [l] lives on process [place.(l)], so
   availability / selection translate the physical live set into a
   logical one, run the triangle's structural strategy, and map the
   chosen quorum back. *)
(* Placement is the generic [System.embed]; only the h-triang naming
   convention is ours. *)
let remap_system ~universe (tri : Htriang.t) (place : int array) =
  let name = Printf.sprintf "h-triang(%d)/%d" tri.Htriang.n universe in
  System.embed ~name ~universe ~place (Htriang.system tri)

(* Flap hysteresis of the [Fd] views: consecutive agreeing ticks before
   a node is treated as newly dead, resp. revived. *)
let down_streak = 2
let up_streak = 1

let create engine ?durability ?lease ?switch_retry ?(margin = 2)
    ?(view = Omniscient) ~rows ~timeout () =
  if margin < 0 then invalid_arg "Membership.create: margin < 0";
  let universe = Sim.Engine.nodes engine in
  let tri = Htriang.standard ~rows () in
  if tri.Htriang.n > universe then
    invalid_arg "Membership.create: universe smaller than the triangle";
  let place = Array.init tri.Htriang.n Fun.id in
  let initial = remap_system ~universe tri place in
  let config = Client_config.(default |> with_timeout timeout) in
  let config =
    match durability with
    | Some d -> Client_config.with_durability d config
    | None -> config
  in
  let reconfig =
    Reconfig.of_config engine ~config ~with_fd:(view <> Omniscient) ?lease
      ?switch_retry ~initial ()
  in
  {
    engine;
    reconfig;
    universe;
    margin;
    view;
    (* Presume everyone live until the detector says otherwise — the
       failure detector's own starting opinion. *)
    eff_live = Array.make universe true;
    streak = Array.make universe 0;
    tri;
    place;
    proposed = None;
    proposals = 0;
    grows = 0;
    shrinks = 0;
    replacements = 0;
    false_evictions = 0;
  }

let reconfig t = t.reconfig

(* Adopt a committed proposal; drop one whose switch died without
   advancing the epoch. *)
let refresh t =
  match t.proposed with
  | None -> ()
  | Some (epoch, tri, place) ->
      if Reconfig.current_epoch t.reconfig >= epoch then (
        t.tri <- tri;
        t.place <- place;
        t.proposed <- None)
      else if not (Reconfig.switch_in_flight t.reconfig) then
        t.proposed <- None

let current_triangle t =
  refresh t;
  t.tri

let members t =
  refresh t;
  Array.copy t.place

let current_system t =
  refresh t;
  remap_system ~universe:t.universe t.tri t.place

let proposals t = t.proposals
let grows t = t.grows
let shrinks t = t.shrinks
let replacements t = t.replacements
let false_evictions t = t.false_evictions

(* The liveness opinion a tick acts on.  [Omniscient] is the engine's
   oracle (the historical controller, bit-identical).  [Fd] reads the
   failure detector through the register's member views: a majority
   vote over every live member's view (a falsely-suspected node must
   fool half the observers to be evicted).  The raw opinion then runs
   through flap hysteresis: a node's effective state only flips after
   [down_streak] (resp. [up_streak]) consecutive ticks of
   disagreement, so a single missed heartbeat burst cannot trigger an
   eviction switch. *)
let controller_view t =
  match t.view with
  | Omniscient -> Sim.Engine.live_set t.engine
  | Fd ->
      (* Placements are distinct processes: one vote each, from a
         view taken once per tick. *)
      let observers =
        List.filter (Sim.Engine.is_live t.engine) (Array.to_list t.place)
      in
      let views =
        List.filter_map (fun o -> Reconfig.fd_view t.reconfig ~node:o) observers
      in
      let raw_live p =
        if observers = [] then
          (* No live member to consult: hold every opinion. *)
          t.eff_live.(p)
        else
          let yes = List.filter (fun v -> Bitset.mem v p) views in
          2 * List.length yes > List.length observers
      in
      let out = Bitset.create t.universe in
      for p = 0 to t.universe - 1 do
        let raw = raw_live p in
        if raw = t.eff_live.(p) then t.streak.(p) <- 0
        else begin
          t.streak.(p) <- t.streak.(p) + 1;
          let needed = if t.eff_live.(p) then down_streak else up_streak in
          if t.streak.(p) >= needed then begin
            t.eff_live.(p) <- raw;
            t.streak.(p) <- 0
          end
        end;
        if t.eff_live.(p) then Bitset.add out p
      done;
      out

(* Fill [n'] logical slots with distinct processes, preferring live
   current members (keeping their slots stable), then live spares, then
   dead current members, then anything left — all in deterministic
   order.  [n' <= universe] guarantees enough candidates. *)
let next_placement ~universe ~live ~old_place n' =
  let used = Array.make universe false in
  let out = ref [] in
  let count = ref 0 in
  let push p =
    if !count < n' && not used.(p) then (
      used.(p) <- true;
      out := p :: !out;
      incr count)
  in
  Array.iter (fun p -> if Bitset.mem live p then push p) old_place;
  for p = 0 to universe - 1 do
    if Bitset.mem live p then push p
  done;
  Array.iter push old_place;
  for p = 0 to universe - 1 do
    push p
  done;
  Array.of_list (List.rev !out)

let first_of (fs : (Htriang.t -> Htriang.t option) list) tri =
  List.fold_left
    (fun acc f -> match acc with Some _ -> acc | None -> f tri)
    None fs

let tick t =
  refresh t;
  if Reconfig.switch_in_flight t.reconfig then ()
  else
    let live = controller_view t in
    let live_count = Bitset.cardinal live in
    let n = t.tri.Htriang.n in
    (* One structural step per tick, with hysteresis around the margin:
       grow only when the live population clears the *grown* size plus
       the full margin (so the triangle always keeps [margin] live
       spares on adoption), shrink only when the live population can
       barely fill the current triangle (one spare left).  The wide gap
       between the two thresholds keeps live-count jitter from turning
       into grow/shrink oscillation — every structural step is a sealed
       switch, so oscillation is pure downtime. *)
    let tri' =
      if live_count < n + 1 && live_count > 0 then
        match
          first_of
            [
              Htriang.shrink_unit_grid;
              Htriang.shrink_unit_triangle;
              Htriang.shrink_square_grid;
            ]
            t.tri
        with
        | Some s -> s
        | None -> t.tri
      else
        let fits g =
          g.Htriang.n <= t.universe && live_count >= g.Htriang.n + t.margin
        in
        let candidates =
          List.filter_map
            (fun f -> f t.tri)
            [ Htriang.grow_unit_triangle; Htriang.grow_unit_grid ]
        in
        match List.find_opt fits candidates with
        | Some g -> g
        | None -> t.tri
    in
    let structural = tri' != t.tri in
    (* Lazy repair: every switch seals the register for a couple of
       round trips, and an h-triang tolerates scattered dead members by
       construction — so a single dead member is not worth a switch.
       Replace only when the repair debt reaches two dead members, or
       urgently when the dead ones leave no live quorum at all. *)
    let dead =
      Array.fold_left
        (fun acc p -> if Bitset.mem live p then acc else acc + 1)
        0 t.place
    in
    let urgent () =
      let logical = Bitset.create t.tri.Htriang.n in
      for l = 0 to t.tri.Htriang.n - 1 do
        if Bitset.mem live t.place.(l) then Bitset.add logical l
      done;
      not (Htriang.avail t.tri logical)
    in
    if (not structural) && (dead < 2 && not (dead = 1 && urgent ())) then ()
    else
      let place' =
        next_placement ~universe:t.universe ~live ~old_place:t.place
          tri'.Htriang.n
      in
      if (not structural) && place' = t.place then ()
      else
      (* The old configuration runs the seal, so the coordinator must
         be a live member of it; with none, wait for the next tick. *)
      match Array.to_list t.place |> List.find_opt (Bitset.mem live) with
      | None -> ()
      | Some coordinator ->
          (* Oracle check (measurement only, never steering): an
             evicted member the engine knows is live is a false
             eviction — the cost of trusting a wrong suspicion.
             Epoch fencing keeps it safe (the evicted node NACKs
             stale-epoch ops and rejoins via a later placement);
             this counts how often availability paid for it. *)
          Array.iter
            (fun p ->
              if
                (not (Array.exists (Int.equal p) place'))
                && Sim.Engine.is_live t.engine p
                && not (Bitset.mem live p)
              then t.false_evictions <- t.false_evictions + 1)
            t.place;
          let sys = remap_system ~universe:t.universe tri' place' in
          Reconfig.reconfigure t.reconfig ~coordinator sys;
          t.proposed <-
            Some (Reconfig.current_epoch t.reconfig + 1, tri', place');
          t.proposals <- t.proposals + 1;
          if structural then
            if tri'.Htriang.n > t.tri.Htriang.n then t.grows <- t.grows + 1
            else t.shrinks <- t.shrinks + 1
          else t.replacements <- t.replacements + 1

let start t ~period ~horizon =
  if period <= 0.0 then invalid_arg "Membership.start: period <= 0";
  let rec arm time =
    if time < horizon then (
      Sim.Engine.schedule ~background:true t.engine ~time (fun () -> tick t);
      arm (time +. period))
  in
  arm period
