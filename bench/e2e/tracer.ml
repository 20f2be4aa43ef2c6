(* The traced rep's instruments.  Everything here measures from outside
   the library: it times the benchmark's own calls into public
   functions, wraps the [select] / [avail] closures of the systems it
   hands to a run, and sums the [Obs.Prof] report and metrics registry
   of each cell's private [Obs.t].  Untimed and timed reps never see a
   tracer, so they run with the library defaults. *)

(* Seconds on the monotonic clock: a wall-clock step (a shared VM
   resyncing its time) must not make a measured interval negative. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = { id : int; name : string; start : float; stop : float; parent : int }

type t = {
  prof_s : float array;  (* per Prof category: self seconds *)
  prof_words : float array;  (* self minor words *)
  prof_calls : int array;  (* probes entered *)
  mutable truncated : int;
  mutable unbalanced : int;
  mutable share_sums : float list;  (* per absorbed report: its rows' time shares, summed *)
  counters : (string, float) Hashtbl.t;  (* registry counters, summed *)
  samples : (string, float list) Hashtbl.t;  (* bench-side timings *)
  values : (string, float) Hashtbl.t;  (* per-layer values set by a workload *)
  mutable select_calls : int;
  mutable select_s : float;
  mutable avail_calls : int;
  mutable avail_s : float;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable parent : int;
}

let create () =
  let k = Obs.Prof.n_categories in
  {
    prof_s = Array.make k 0.0;
    prof_words = Array.make k 0.0;
    prof_calls = Array.make k 0;
    truncated = 0;
    unbalanced = 0;
    share_sums = [];
    counters = Hashtbl.create 16;
    samples = Hashtbl.create 8;
    values = Hashtbl.create 16;
    select_calls = 0;
    select_s = 0.0;
    avail_calls = 0;
    avail_s = 0.0;
    spans = [];
    next_id = 0;
    parent = -1;
  }

let add_sample t name x =
  Hashtbl.replace t.samples name
    (x :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let samples t name =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let add_value t name x =
  Hashtbl.replace t.values name
    (x +. Option.value ~default:0.0 (Hashtbl.find_opt t.values name))

let value t name = Hashtbl.find_opt t.values name
let counter t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)

(* A coarse bench-side span: name, host start/end and the enclosing
   span.  With no tracer it is just the call. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next_id and parent = t.parent in
      t.next_id <- id + 1;
      t.parent <- id;
      let start = now () in
      Fun.protect f ~finally:(fun () ->
          t.parent <- parent;
          t.spans <- { id; name; start; stop = now (); parent } :: t.spans)

let absorb t obs =
  let r = Obs.Prof.report (Obs.prof obs) in
  List.iter
    (fun (row : Obs.Prof.row) ->
      let i = Obs.Prof.index row.Obs.Prof.category in
      t.prof_s.(i) <- t.prof_s.(i) +. row.Obs.Prof.seconds;
      t.prof_words.(i) <- t.prof_words.(i) +. row.Obs.Prof.minor_words;
      t.prof_calls.(i) <- t.prof_calls.(i) + row.Obs.Prof.probes)
    r.Obs.Prof.rows;
  t.truncated <- t.truncated + r.Obs.Prof.truncated;
  t.unbalanced <- t.unbalanced + r.Obs.Prof.unbalanced;
  t.share_sums <-
    List.fold_left (fun a (row : Obs.Prof.row) -> a +. row.Obs.Prof.time_share) 0.0 r.Obs.Prof.rows
    :: t.share_sums;
  List.iter
    (fun (s : Obs.Metrics.sample) ->
      match s.Obs.Metrics.value with
      | Obs.Metrics.Counter c ->
          Hashtbl.replace t.counters s.Obs.Metrics.name
            (counter t s.Obs.Metrics.name +. float_of_int c)
      | Obs.Metrics.Gauge _ | Obs.Metrics.Histogram _ -> ())
    (Obs.Metrics.snapshot (Obs.metrics obs))

(* One cell of a workload: with a tracer, the cell gets a private
   profiled [Obs.t] (so per-cell report fields computed from spans stay
   exactly what an untraced run computes) and a bench span; its
   profile and counters are summed into the tracer afterwards. *)
let cell tr name f =
  match tr with
  | None -> f None
  | Some t ->
      let obs = Obs.create ~profile:true () in
      let r = span tr name (fun () -> f (Some obs)) in
      absorb t obs;
      r

(* Count and time every selection and availability check the protocols
   make through a system the benchmark built.  Behaviour is unchanged:
   the wrapped closures see the same arguments and RNG. *)
let wrap tr (s : Quorum.System.t) =
  match tr with
  | None -> s
  | Some t ->
      {
        s with
        Quorum.System.select =
          (fun rng ~live ->
            let t0 = now () in
            let r = s.Quorum.System.select rng ~live in
            t.select_s <- t.select_s +. (now () -. t0);
            t.select_calls <- t.select_calls + 1;
            r);
        avail =
          (fun live ->
            let t0 = now () in
            let r = s.Quorum.System.avail live in
            t.avail_s <- t.avail_s +. (now () -. t0);
            t.avail_calls <- t.avail_calls + 1;
            r);
      }

let prof_total t = Array.fold_left ( +. ) 0.0 t.prof_s

(* The absorbed reports whose time shares do not sum to 1 +- 0.01, as
   (cell ordinal, sum).  A profile that recorded nothing sums to 0 and
   is reported too. *)
let bad_share_sums t =
  List.rev t.share_sums
  |> List.mapi (fun i s -> (i, s))
  |> List.filter (fun (_, s) -> Float.abs (s -. 1.0) > 0.01)

let write_spans t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ("start", Json.Num s.start);
                ("end", Json.Num s.stop);
                ("parent", Json.Num (float_of_int s.parent));
              ]));
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc
