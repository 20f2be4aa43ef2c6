type status = Open | Ok | Error of string

let status_name = function
  | Open -> "open"
  | Ok -> "ok"
  | Error "" -> "error"
  | Error reason -> "error:" ^ reason

type span = {
  id : int;
  parent : int;
  root : int;
  node : int;
  name : string;
  start_time : float;
  end_time : float;
  status : status;
}

(* A run keeps every span, so spans are stored by column, in chunks of
   [chunk_size]: seven words a span, no allocation per start or finish,
   and growth by one chunk without copying. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits

type chunk = {
  parents : int array;
  roots : int array;
  nodes : int array;
  names : string array;
  starts : Float.Array.t;
  ends : Float.Array.t;  (** [nan] while open *)
  statuses : status array;
}

let new_chunk () =
  let ints () = Array.make chunk_size 0 in
  { parents = ints (); roots = ints (); nodes = ints ();
    names = Array.make chunk_size ""; starts = Float.Array.make chunk_size 0.0;
    ends = Float.Array.make chunk_size nan; statuses = Array.make chunk_size Open }

type t = {
  mutable chunks : chunk array;
  mutable len : int;
  prof : Prof.t;
  (* Root sampling: keep 1 in [keep_1_in] root spans (1 = all, 0 = none);
     descendants of a dropped root get the [sampled_out] sentinel id, so
     a tree is kept or dropped whole. *)
  mutable keep_1_in : int;
  mutable sample_seed : int;
  mutable roots_seen : int;
  mutable roots_kept : int;
}

let sampled_out = -2

let create ?(prof = Prof.null) () =
  { chunks = [||]; len = 0; prof; keep_1_in = 1; sample_seed = 0;
    roots_seen = 0; roots_kept = 0 }

let count t = t.len
let chunk_of t id = t.chunks.(id lsr chunk_bits)
let slot id = id land (chunk_size - 1)

let span_at t id =
  let c = chunk_of t id and i = slot id in
  { id; parent = c.parents.(i); root = c.roots.(i); node = c.nodes.(i);
    name = c.names.(i); start_time = Float.Array.get c.starts i;
    end_time = Float.Array.get c.ends i; status = c.statuses.(i) }

let known t id = id >= 0 && id < t.len
let get t id = if known t id then Some (span_at t id) else None
let unknown id = invalid_arg (Printf.sprintf "Span.get_exn: unknown span %d" id)
let get_exn t id = if known t id then span_at t id else unknown id

let set_sampler t ~seed ~keep_1_in =
  if keep_1_in < 0 then invalid_arg "Span.set_sampler: keep_1_in < 0";
  t.sample_seed <- seed;
  t.keep_1_in <- keep_1_in

let sampler_keep_1_in t = t.keep_1_in
let roots_seen t = t.roots_seen
let roots_kept t = t.roots_kept

(* splitmix64 finalizer, the same mixer {!Metrics} reservoirs use: the
   keep/drop decision is a pure function of (seed, root ordinal), fully
   independent of the simulation's RNG streams and of wall clock. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let keep_root t =
  match t.keep_1_in with
  | 1 -> true
  | 0 -> false
  | k ->
      let h =
        mix64
          (Int64.add
             (Int64.mul (Int64.of_int t.roots_seen) 0x9E3779B97F4A7C15L)
             (Int64.of_int t.sample_seed))
      in
      Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int k))
      = 0

let start t ~time ~node ?(parent = -1) name =
  if parent <= sampled_out then sampled_out
  else begin
    Prof.enter t.prof Prof.Span;
    let id =
      let sampled_root =
        parent < 0
        && begin
             t.roots_seen <- t.roots_seen + 1;
             not (keep_root t)
           end
      in
      if sampled_root then sampled_out
      else begin
        let id = t.len in
        let root =
          if parent < 0 then begin
            t.roots_kept <- t.roots_kept + 1;
            id
          end
          else if known t parent then (chunk_of t parent).roots.(slot parent)
          else invalid_arg "Span.start: unknown parent"
        in
        if id lsr chunk_bits = Array.length t.chunks then
          t.chunks <- Array.append t.chunks [| new_chunk () |];
        let c = chunk_of t id and i = slot id in
        c.parents.(i) <- parent;
        c.roots.(i) <- root;
        c.nodes.(i) <- node;
        c.names.(i) <- name;
        Float.Array.set c.starts i time;
        Float.Array.set c.ends i nan;
        c.statuses.(i) <- Open;
        t.len <- id + 1;
        id
      end
    in
    Prof.leave t.prof Prof.Span;
    id
  end

let is_open s = s.status = Open
let duration s = if is_open s then nan else s.end_time -. s.start_time

let finish t ~time ?(status = Ok) id =
  if status = Open then invalid_arg "Span.finish: status Open";
  if id <= sampled_out then ()  (* whole tree was sampled out *)
  else begin
    Prof.enter t.prof Prof.Span;
    if not (known t id) then unknown id;
    let c = chunk_of t id and i = slot id in
    (* First close wins: a watchdog and a late reply may both try to end
       the same span, and the earlier verdict is the operation's truth. *)
    if c.statuses.(i) = Open then begin
      if time < Float.Array.get c.starts i then
        invalid_arg "Span.finish: time before start";
      Float.Array.set c.ends i time;
      c.statuses.(i) <- status
    end;
    Prof.leave t.prof Prof.Span
  end

let iter t f =
  for id = 0 to t.len - 1 do
    f (span_at t id)
  done

let filter t keep =
  let acc = ref [] in
  iter t (fun s -> if keep s then acc := s :: !acc);
  List.rev !acc

let to_list t = filter t (fun _ -> true)
let roots t = filter t (fun s -> s.parent < 0)
let children t id = filter t (fun s -> s.parent = id)
let open_count t = List.length (filter t is_open)

let validate t =
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun m -> faults := m :: !faults) fmt in
  iter t (fun s ->
      if s.parent >= 0 then begin
        match get t s.parent with
        | None -> fault "span %d: parent %d does not exist" s.id s.parent
        | Some p ->
            if p.id >= s.id then
              fault "span %d: parent %d not started before child" s.id p.id;
            if s.root <> p.root then
              fault "span %d: root %d disagrees with parent's root %d" s.id
                s.root p.root;
            if s.start_time < p.start_time then
              fault "span %d: starts %g before parent %d at %g" s.id
                s.start_time p.id p.start_time
      end
      else if s.root <> s.id then
        fault "span %d: root span with root field %d" s.id s.root;
      if (not (is_open s)) && s.end_time < s.start_time then
        fault "span %d: ends %g before it starts %g" s.id s.end_time
          s.start_time);
  List.rev !faults
