type batch = {
  run : int -> unit;
  total : int;
  mutable next : int;  (* next chunk index to hand out *)
  mutable completed : int;
  mutable error : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-numbered failing chunk *)
  times : float array;  (* per-chunk wall seconds; disjoint slots *)
}

type t = {
  jobs : int;
  name : string;
  metrics : Obs.Metrics.t option;
  prof : Obs.Prof.t;
  mutex : Mutex.t;
  has_work : Condition.t;  (* workers wait here between batches *)
  progress : Condition.t;  (* the submitter waits here for the join *)
  mutable batch : batch option;
  mutable running : bool;  (* a batch is in flight (nested-submit guard) *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let now () = Unix.gettimeofday ()

(* Run one chunk outside the lock, recording the first (lowest-index)
   exception.  The batch always runs to completion so the join below
   stays a simple counter. *)
let exec_chunk t b idx =
  let t0 = now () in
  (try b.run idx
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Mutex.lock t.mutex;
     (match b.error with
     | Some (i, _, _) when i < idx -> ()
     | _ -> b.error <- Some (idx, e, bt));
     Mutex.unlock t.mutex);
  b.times.(idx) <- now () -. t0

(* Pull and run chunks until the cursor is exhausted.  Called with the
   lock held; returns with the lock held. *)
let drain t b =
  while b.next < b.total do
    let idx = b.next in
    b.next <- idx + 1;
    Mutex.unlock t.mutex;
    exec_chunk t b idx;
    Mutex.lock t.mutex;
    b.completed <- b.completed + 1;
    if b.completed = b.total then Condition.broadcast t.progress
  done

let worker_loop t =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.closed then Mutex.unlock t.mutex
    else begin
      (match t.batch with Some b -> drain t b | None -> ());
      if not t.closed then begin
        (* Either no batch, or its cursor is exhausted: sleep until the
           next batch (or shutdown) is broadcast. *)
        Condition.wait t.has_work t.mutex;
        loop ()
      end
      else Mutex.unlock t.mutex
    end
  in
  loop ()

let create ?(name = "pool") ?metrics ?prof ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      name;
      metrics;
      prof = (match prof with Some p -> p | None -> Obs.Prof.null);
      mutex = Mutex.create ();
      has_work = Condition.create ();
      progress = Condition.create ();
      batch = None;
      running = false;
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?name ?metrics ?prof ?jobs f =
  let t = create ?name ?metrics ?prof ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let record_metrics t b wall =
  match t.metrics with
  | None -> ()
  | Some m ->
      let labels = [ ("pool", t.name) ] in
      let batches = Obs.Metrics.counter m "exec.batches" ~help:"pool batches run" in
      let chunks = Obs.Metrics.counter m "exec.chunks" ~help:"pool chunks run" in
      let batch_ms =
        Obs.Metrics.histogram m "exec.batch_ms" ~help:"batch wall time (ms)"
      in
      let chunk_ms =
        Obs.Metrics.histogram m "exec.chunk_ms" ~help:"per-chunk wall time (ms)"
      in
      Obs.Metrics.incr ~labels batches;
      Obs.Metrics.incr ~labels ~by:b.total chunks;
      Obs.Metrics.observe ~labels batch_ms (wall *. 1000.0);
      Array.iter
        (fun s -> Obs.Metrics.observe ~labels chunk_ms (s *. 1000.0))
        b.times

let iter_chunks t ~chunks f =
  if chunks < 0 then invalid_arg "Pool.iter_chunks: negative chunk count";
  if chunks = 0 then ()
  else begin
    (* Batch-level probe only: the accumulators are not domain-safe, so
       worker domains never touch them — the submitting domain charges
       the whole batch (its own chunk work plus the join wait). *)
    Obs.Prof.enter t.prof Obs.Prof.Exec;
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      Obs.Prof.leave t.prof Obs.Prof.Exec;
      invalid_arg "Pool: submission after shutdown"
    end;
    if t.running then begin
      Mutex.unlock t.mutex;
      Obs.Prof.leave t.prof Obs.Prof.Exec;
      invalid_arg "Pool: nested submission (chunk bodies must not submit)"
    end;
    let b =
      {
        run = f;
        total = chunks;
        next = 0;
        completed = 0;
        error = None;
        times = Array.make chunks 0.0;
      }
    in
    t.running <- true;
    t.batch <- Some b;
    let t0 = now () in
    Condition.broadcast t.has_work;
    (* The submitting domain is a worker too. *)
    drain t b;
    while b.completed < b.total do
      Condition.wait t.progress t.mutex
    done;
    t.batch <- None;
    t.running <- false;
    Mutex.unlock t.mutex;
    record_metrics t b (now () -. t0);
    Obs.Prof.leave t.prof Obs.Prof.Exec;
    match b.error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map_chunks t ~chunks f =
  if chunks < 0 then invalid_arg "Pool.map_chunks: negative chunk count";
  if chunks = 0 then [||]
  else begin
    let out = Array.make chunks None in
    iter_chunks t ~chunks (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_array t f a = map_chunks t ~chunks:(Array.length a) (fun i -> f a.(i))

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some t -> Array.to_list (map_array t f (Array.of_list xs))

let reduce_tree f a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pool.reduce_tree: empty array";
  (* Combine adjacent pairs until one value remains: the tree shape
     depends only on [n], so float folds reproduce exactly. *)
  let rec level src len =
    if len = 1 then src.(0)
    else begin
      let half = (len + 1) / 2 in
      let dst =
        Array.init half (fun i ->
            if (2 * i) + 1 < len then f src.(2 * i) src.((2 * i) + 1)
            else src.(2 * i))
      in
      level dst half
    end
  in
  level a n

let map_reduce_chunks t ~chunks ~map ~reduce =
  if chunks < 1 then invalid_arg "Pool.map_reduce_chunks: chunks must be >= 1";
  reduce_tree reduce (map_chunks t ~chunks map)
