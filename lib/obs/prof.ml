(* Self-profiling for the simulator: flat int-indexed accumulators, an
   explicit probe stack, and boundary charging.  Every enter/leave reads
   the wall clock and the minor-allocation counter once and charges the
   elapsed interval to the category that was on top of the stack, so
   each category accumulates *exclusive* (self) time and words — the
   rows of a report sum to the total probed interval by construction. *)

type category =
  | Loop
  | Heap
  | Dispatch_msg
  | Dispatch_timer
  | Dispatch_recovery
  | Thunk
  | Rpc
  | Durable
  | Trace
  | Metrics
  | Span
  | Exec
  | Other

let n_categories = 13

let index = function
  | Loop -> 0
  | Heap -> 1
  | Dispatch_msg -> 2
  | Dispatch_timer -> 3
  | Dispatch_recovery -> 4
  | Thunk -> 5
  | Rpc -> 6
  | Durable -> 7
  | Trace -> 8
  | Metrics -> 9
  | Span -> 10
  | Exec -> 11
  | Other -> 12

let all =
  [ Loop; Heap; Dispatch_msg; Dispatch_timer; Dispatch_recovery; Thunk;
    Rpc; Durable; Trace; Metrics; Span; Exec; Other ]

let name = function
  | Loop -> "engine.loop"
  | Heap -> "engine.heap"
  | Dispatch_msg -> "engine.dispatch.message"
  | Dispatch_timer -> "engine.dispatch.timer"
  | Dispatch_recovery -> "engine.dispatch.recovery"
  | Thunk -> "engine.dispatch.thunk"
  | Rpc -> "sim.rpc"
  | Durable -> "sim.durable"
  | Trace -> "obs.trace"
  | Metrics -> "obs.metrics"
  | Span -> "obs.span"
  | Exec -> "exec.pool"
  | Other -> "other"

let stack_cap = 128

type t = {
  mutable on : bool;
  time : float array;  (* per-category self seconds *)
  words : float array;  (* per-category self minor words *)
  count : int array;  (* probes entered per category *)
  stack : int array;  (* enclosing category indices *)
  mutable depth : int;
  last : Float.Array.t;
      (* boundary at the last probe edge: wall clock in cell 0, minor
         words in cell 1 — unboxed, so an edge allocates nothing *)
  mutable truncated : int;  (* probes deeper than the stack *)
  mutable unbalanced : int;  (* leave without enter / category mismatch *)
}

let create ?(enabled = false) () =
  {
    on = enabled;
    time = Array.make n_categories 0.0;
    words = Array.make n_categories 0.0;
    count = Array.make n_categories 0;
    stack = Array.make stack_cap 0;
    depth = 0;
    last = Float.Array.make 2 0.0;
    truncated = 0;
    unbalanced = 0;
  }

(* A shared always-off instance: subsystems hold a [Prof.t]
   unconditionally and the disabled checks cost one load + branch. *)
let null = create ()

let enabled t = t.on

let clear t =
  Array.fill t.time 0 n_categories 0.0;
  Array.fill t.words 0 n_categories 0.0;
  Array.fill t.count 0 n_categories 0;
  t.depth <- 0;
  t.truncated <- 0;
  t.unbalanced <- 0

let set_enabled t on =
  (* Abandon any open probes: toggling mid-scope must not charge the
     disabled interval to whatever happened to be on the stack. *)
  t.depth <- 0;
  t.on <- on;
  if on then begin
    Float.Array.set t.last 0 (Unix.gettimeofday ());
    Float.Array.set t.last 1 (Gc.minor_words ())
  end

(* Inlined so [tn] and [wn] stay unboxed from the clock reads into the
   accumulators. *)
let[@inline] charge t i tn wn =
  t.time.(i) <- t.time.(i) +. (tn -. Float.Array.get t.last 0);
  t.words.(i) <- t.words.(i) +. (wn -. Float.Array.get t.last 1)

let[@inline] mark t tn wn =
  Float.Array.set t.last 0 tn;
  Float.Array.set t.last 1 wn

let enter t cat =
  if t.on then begin
    let i = index cat in
    let tn = Unix.gettimeofday () in
    let wn = Gc.minor_words () in
    if t.depth > 0 then charge t t.stack.(min (t.depth - 1) (stack_cap - 1)) tn wn;
    if t.depth < stack_cap then t.stack.(t.depth) <- i
    else t.truncated <- t.truncated + 1;
    t.depth <- t.depth + 1;
    t.count.(i) <- t.count.(i) + 1;
    mark t tn wn
  end

let leave t cat =
  if t.on then begin
    if t.depth = 0 then t.unbalanced <- t.unbalanced + 1
    else begin
      let top = t.stack.(min (t.depth - 1) (stack_cap - 1)) in
      if t.depth <= stack_cap && top <> index cat then
        t.unbalanced <- t.unbalanced + 1;
      let tn = Unix.gettimeofday () in
      let wn = Gc.minor_words () in
      charge t top tn wn;
      t.depth <- t.depth - 1;
      mark t tn wn
    end
  end

let probe t cat f =
  enter t cat;
  match f () with
  | v ->
      leave t cat;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave t cat;
      Printexc.raise_with_backtrace e bt

type row = {
  category : category;
  label : string;
  probes : int;
  seconds : float;
  time_share : float;
  minor_words : float;
  alloc_share : float;
}

type report = {
  rows : row list;
  total_seconds : float;
  total_minor_words : float;
  truncated : int;
  unbalanced : int;
}

let report t =
  let total_s = Array.fold_left ( +. ) 0.0 t.time in
  let total_w = Array.fold_left ( +. ) 0.0 t.words in
  let rows =
    List.filter_map
      (fun cat ->
        let i = index cat in
        if t.count.(i) = 0 && t.time.(i) = 0.0 then None
        else
          Some
            {
              category = cat;
              label = name cat;
              probes = t.count.(i);
              seconds = t.time.(i);
              time_share = (if total_s > 0.0 then t.time.(i) /. total_s else 0.0);
              minor_words = t.words.(i);
              alloc_share =
                (if total_w > 0.0 then t.words.(i) /. total_w else 0.0);
            })
      all
    |> List.sort (fun a b -> compare b.seconds a.seconds)
  in
  {
    rows;
    total_seconds = total_s;
    total_minor_words = total_w;
    truncated = t.truncated;
    unbalanced = t.unbalanced;
  }

let render t =
  let r = report t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %10s %10s %6s %14s %6s\n" "category" "probes"
       "seconds" "time%" "minor-words" "alloc%");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %10d %10.4f %5.1f%% %14.0f %5.1f%%\n" row.label
           row.probes row.seconds
           (100.0 *. row.time_share)
           row.minor_words
           (100.0 *. row.alloc_share)))
    r.rows;
  Buffer.add_string buf
    (Printf.sprintf "%-28s %10s %10.4f %5s  %14.0f\n" "total" "" r.total_seconds
       "" r.total_minor_words);
  if r.truncated > 0 || r.unbalanced > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(probe stack: %d truncated, %d unbalanced)\n" r.truncated
         r.unbalanced);
  Buffer.contents buf

let render_markdown t =
  let r = report t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "| category | probes | seconds | time % | minor words | alloc % |\n";
  Buffer.add_string buf "|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "| `%s` | %d | %.4f | %.1f%% | %.0f | %.1f%% |\n"
           row.label row.probes row.seconds
           (100.0 *. row.time_share)
           row.minor_words
           (100.0 *. row.alloc_share)))
    r.rows;
  Buffer.add_string buf
    (Printf.sprintf "| **total** | | %.4f | | %.0f | |\n" r.total_seconds
       r.total_minor_words);
  Buffer.contents buf
