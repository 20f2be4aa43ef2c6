type t = {
  name : string;
  n : int;
  avail : Bitset.t -> bool;
  avail_mask : (int -> bool) option;
  avail_counts : (unit -> int array) option;
  min_quorums : Bitset.t list Lazy.t option;
  min_masks : (unit -> int array) option;
  select : Rng.t -> live:Bitset.t -> Bitset.t option;
}

let default_select min_quorums name rng ~live =
  match min_quorums with
  | None ->
      invalid_arg
        (Printf.sprintf
           "System %s: no selection strategy and no quorum list" name)
  | Some quorums ->
      let candidates =
        List.filter (fun q -> Bitset.subset q live) (Lazy.force quorums)
      in
      (match candidates with
      | [] -> None
      | _ -> Some (Bitset.copy (Rng.pick rng (Array.of_list candidates))))

let make ~name ~n ~avail ?avail_mask ?avail_counts ?min_quorums ?min_masks
    ?select () =
  let select =
    match select with
    | Some f -> f
    | None -> default_select min_quorums name
  in
  { name; n; avail; avail_mask; avail_counts; min_quorums; min_masks; select }

(* Drop quorums that contain another quorum, yielding a coterie. *)
let minimize quorums =
  let keep q =
    not
      (List.exists
         (fun q' -> (not (Bitset.equal q q')) && Bitset.subset q' q)
         quorums)
  in
  List.filter keep quorums

(* Some quorum mask from [i] on lies within [live]. *)
let rec some_mask_within masks live i =
  i < Array.length masks
  && (masks.(i) land live = masks.(i) || some_mask_within masks live (i + 1))

let of_quorums ~name ~n quorums =
  List.iter
    (fun q ->
      if Bitset.capacity q <> n then
        invalid_arg "System.of_quorums: quorum universe mismatch")
    quorums;
  let minimal = minimize quorums in
  (* Up to 62 processes both checks scan the quorum masks, which
     allocates nothing. *)
  let avail, avail_mask =
    if n <= Bitset.bits_per_word then begin
      let masks = Array.of_list (List.map Bitset.to_mask minimal) in
      ( (fun live -> some_mask_within masks (Bitset.to_mask live) 0),
        Some (fun live -> some_mask_within masks live 0) )
    end
    else
      ((fun live -> List.exists (fun q -> Bitset.subset q live) minimal), None)
  in
  make ~name ~n ~avail ?avail_mask ~min_quorums:(lazy minimal) ()

let avail_mask_exn t =
  match t.avail_mask with
  | Some f -> f
  | None ->
      if t.n > Bitset.bits_per_word then
        invalid_arg "System.avail_mask_exn: universe too large";
      (* Domain-local scratch: the derived closure is re-entrant across
         domains, so one closure can serve a whole parallel scan. *)
      let scratch = Domain.DLS.new_key (fun () -> Bitset.create t.n) in
      fun mask ->
        let scratch = Domain.DLS.get scratch in
        Bitset.blit_mask scratch mask;
        t.avail scratch

let quorums t =
  match t.min_quorums with
  | Some q -> (
      (* Forcing can itself refuse (e.g. enumeration caps on large
         universes); that is an [Error], not a crash. *)
      match Lazy.force q with
      | q -> Ok q
      | exception (Invalid_argument msg | Failure msg) -> Error msg)
  | None ->
      Error (Printf.sprintf "system %s does not enumerate its quorums" t.name)

let quorums_exn t =
  match quorums t with
  | Ok q -> q
  | Error msg -> invalid_arg ("System.quorums_exn: " ^ msg)

let rename t name = { t with name }

(* Re-express a small system over a larger universe through a placement
   array: logical element [l] of [base] lives at physical process
   [place.(l)].  Everything — availability, selection, the quorum list —
   is the base system's behaviour translated through [place]; processes
   outside the image are permanent spares.  The availability counts and
   the quorum masks are dropped, so an exact scan of an embedded system
   walks its masks. *)
let embed ?name ~universe ~place base =
  let k = Array.length place in
  if k <> base.n then invalid_arg "System.embed: placement size mismatch";
  Array.iter
    (fun p ->
      if p < 0 || p >= universe then invalid_arg "System.embed: placement")
    place;
  let seen = Hashtbl.create k in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p then
        invalid_arg "System.embed: duplicate placement"
      else Hashtbl.add seen p ())
    place;
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "%s/%d" base.name universe
  in
  (* Loops, not iterators: translating a live set or a quorum builds
     no closure, so a selection allocates the logical live set, the
     base's quorum and its physical image. *)
  let logical_live live =
    let llive = Bitset.create k in
    for l = 0 to k - 1 do
      if Bitset.mem live place.(l) then Bitset.add llive l
    done;
    llive
  in
  let physical q =
    let phys = Bitset.create universe in
    for l = 0 to k - 1 do
      if Bitset.mem q l then Bitset.add phys place.(l)
    done;
    phys
  in
  let avail live = base.avail (logical_live live) in
  let select rng ~live =
    Option.map physical (base.select rng ~live:(logical_live live))
  in
  let min_quorums =
    Option.map
      (fun q -> lazy (List.map physical (Lazy.force q)))
      base.min_quorums
  in
  make ~name ~n:universe ~avail ?min_quorums ~select ()

let shrink_select avail rng ~live =
  if not (avail live) then None
  else begin
    let quorum = Bitset.copy live in
    let order = Array.of_list (Bitset.to_list live) in
    Rng.shuffle_in_place rng order;
    Array.iter
      (fun i ->
        Bitset.remove quorum i;
        if not (avail quorum) then Bitset.add quorum i)
      order;
    Some quorum
  end

let pp ppf t = Format.fprintf ppf "%s (n=%d)" t.name t.n
