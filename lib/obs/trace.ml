type kind = Send | Deliver | Drop | Crash | Recover | Note

let kind_name = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Drop -> "drop"
  | Crash -> "crash"
  | Recover -> "recover"
  | Note -> "note"

type event = {
  seq : int;
  time : float;
  kind : kind;
  node : int;
  peer : int;
  msg_id : int;
  span : int;
  label : string;
}

(* Columnar ring: one array per field, written in place; event records
   are only built on read.  Record [seq] lives at index [seq mod cap]. *)
type t = {
  times : Float.Array.t;
  kinds : kind array;
  nodes : int array;
  peers : int array;
  msg_ids : int array;
  spans : int array;
  labels : string array;
  cap : int;
  on_drop : unit -> unit;
  prof : Prof.t;
  mutable next_seq : int;
}

let create ?(capacity = 8192) ?(on_drop = fun () -> ()) ?(prof = Prof.null) ()
    =
  if capacity < 0 then invalid_arg "Trace.create: capacity";
  let n = max capacity 1 in
  let ints () = Array.make n (-1) in
  {
    times = Float.Array.make n 0.0;
    kinds = Array.make n Note;
    nodes = ints ();
    peers = ints ();
    msg_ids = ints ();
    spans = ints ();
    labels = Array.make n "";
    cap = capacity;
    on_drop;
    prof;
    next_seq = 0;
  }

let capacity t = t.cap
let recorded t = t.next_seq
let length t = min t.next_seq t.cap
let dropped t = max 0 (t.next_seq - t.cap)
let clear t = t.next_seq <- 0

let record t ~time ~node ~peer ~msg_id ~span ~label kind =
  if t.cap > 0 then begin
    Prof.enter t.prof Prof.Trace;
    let seq = t.next_seq in
    if seq >= t.cap then t.on_drop ();
    let i = seq mod t.cap in
    Float.Array.set t.times i time;
    t.kinds.(i) <- kind;
    t.nodes.(i) <- node;
    t.peers.(i) <- peer;
    t.msg_ids.(i) <- msg_id;
    t.spans.(i) <- span;
    (* Labels are mostly the shared [""]: skip the write barrier then. *)
    if t.labels.(i) != label then t.labels.(i) <- label;
    t.next_seq <- seq + 1;
    Prof.leave t.prof Prof.Trace
  end

let get t seq =
  let i = seq mod t.cap in
  {
    seq;
    time = Float.Array.get t.times i;
    kind = t.kinds.(i);
    node = t.nodes.(i);
    peer = t.peers.(i);
    msg_id = t.msg_ids.(i);
    span = t.spans.(i);
    label = t.labels.(i);
  }

let iter t f =
  let first = t.next_seq - length t in
  for seq = first to t.next_seq - 1 do
    f (get t seq)
  done

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let causality_violations t =
  let sent = Hashtbl.create 256 in
  (* Message ids are assigned monotonically, so the first Send in the
     (chronological) buffer carries the smallest id still recorded:
     delivers linking to anything older lost their send to ring
     eviction and cannot be judged. *)
  let oldest_sent = ref max_int in
  let evicted = dropped t > 0 in
  let violations = ref [] in
  iter t (fun e ->
      match e.kind with
      | Send when e.msg_id >= 0 ->
          if e.msg_id < !oldest_sent then oldest_sent := e.msg_id;
          Hashtbl.replace sent e.msg_id ()
      | Deliver when e.msg_id >= 0 ->
          if
            (not (Hashtbl.mem sent e.msg_id))
            && not (evicted && e.msg_id < !oldest_sent)
          then violations := e :: !violations
      | Send | Deliver | Drop | Crash | Recover | Note -> ());
  List.rev !violations
