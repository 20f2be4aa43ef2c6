type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> compare (a : string) b) labels

(* Exact-sample histogram: a growable array plus a sortedness flag so
   repeated percentile queries sort at most once between observations.
   With [cap > 0] the array is a reservoir (Algorithm R): count, sum,
   mean, min and max stay exact forever, percentiles are exact until
   [seen] exceeds [cap] and an unbiased sample afterwards. *)
type hist = {
  mutable data : float array;
  mutable len : int;
  mutable total : float;
  mutable is_sorted : bool;
  cap : int;  (* 0 = unbounded (exact) *)
  mutable seen : int;
  mutable min_v : float;
  mutable max_v : float;
  mutable rng : int64;
}

let hist_create ?(cap = 0) ?(seed = 0) () =
  {
    data = [||];
    len = 0;
    total = 0.0;
    is_sorted = true;
    cap;
    seen = 0;
    min_v = infinity;
    max_v = neg_infinity;
    rng = Int64.add (Int64.of_int seed) 0x5DEECE66DL;
  }

(* splitmix64: deterministic per-cell stream, independent of the global
   [Random] state so sampling can never perturb a seeded simulation. *)
let hist_rand h bound =
  let z = Int64.add h.rng 0x9E3779B97F4A7C15L in
  h.rng <- z;
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))

let hist_add h x =
  h.seen <- h.seen + 1;
  h.total <- h.total +. x;
  if x < h.min_v then h.min_v <- x;
  if x > h.max_v then h.max_v <- x;
  if h.cap > 0 && h.len >= h.cap then begin
    (* Reservoir full: keep x with probability cap/seen, evicting a
       uniformly random resident. *)
    let j = hist_rand h h.seen in
    if j < h.cap then begin
      h.data.(j) <- x;
      h.is_sorted <- false
    end
  end
  else begin
    if h.len = Array.length h.data then begin
      let grown = Array.make (max 16 (2 * h.len)) 0.0 in
      Array.blit h.data 0 grown 0 h.len;
      h.data <- grown
    end;
    h.data.(h.len) <- x;
    h.len <- h.len + 1;
    h.is_sorted <- false
  end

let hist_ensure_sorted h =
  if not h.is_sorted then begin
    let prefix = Array.sub h.data 0 h.len in
    Array.sort compare prefix;
    Array.blit prefix 0 h.data 0 h.len;
    h.is_sorted <- true
  end

(* Nearest-rank percentile (matches a sorted-list oracle exactly). *)
let hist_percentile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.percentile: q";
  if h.len = 0 then None
  else begin
    hist_ensure_sorted h;
    let rank =
      min (h.len - 1)
        (max 0 (int_of_float (ceil (q *. float_of_int h.len)) - 1))
    in
    Some h.data.(rank)
  end

type kind = KCounter | KGauge | KHistogram

let kind_name = function
  | KCounter -> "counter"
  | KGauge -> "gauge"
  | KHistogram -> "histogram"

type cell = Ccounter of int ref | Cgauge of float ref | Chist of hist

type family = {
  fname : string;
  mutable help : string;
  kind : kind;
  mutable hcap : int;  (* histogram reservoir cap; 0 = exact *)
  cells : (labels, cell) Hashtbl.t;
  fprof : Prof.t;
  fon : bool ref;  (* shared with the registry: one switch for all *)
  mutable c0 : cell option;  (* cached unlabeled cell: the hot path *)
}

type t = {
  families : (string, family) Hashtbl.t;
  prof : Prof.t;
  on : bool ref;
}

type counter = family
type gauge = family
type histogram = family

let create ?(prof = Prof.null) () =
  { families = Hashtbl.create 32; prof; on = ref true }

let set_enabled t on = t.on := on

let register t kind ?(help = "") ?(max_samples = 0) name =
  if max_samples < 0 then invalid_arg "Metrics: max_samples < 0";
  match Hashtbl.find_opt t.families name with
  | Some f ->
      if f.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_name f.kind));
      if help <> "" then f.help <- help;
      if max_samples > 0 then f.hcap <- max_samples;
      f
  | None ->
      let f =
        { fname = name; help; kind; hcap = max_samples;
          cells = Hashtbl.create 4; fprof = t.prof; fon = t.on; c0 = None }
      in
      Hashtbl.add t.families name f;
      f

let counter t ?help name = register t KCounter ?help name
let gauge t ?help name = register t KGauge ?help name

let histogram t ?help ?max_samples name =
  register t KHistogram ?help ?max_samples name

(* Write path: create the cell on first touch. *)
let cell f labels =
  let key = canon labels in
  match Hashtbl.find_opt f.cells key with
  | Some c -> c
  | None ->
      let c =
        match f.kind with
        | KCounter -> Ccounter (ref 0)
        | KGauge -> Cgauge (ref 0.0)
        | KHistogram ->
            (* Seeded from the cell identity: reservoir contents are a
               pure function of the observation stream, never of wall
               clock or global Random state. *)
            Chist
              (hist_create ~cap:f.hcap
                 ~seed:(Hashtbl.hash (f.fname, key))
                 ())
      in
      Hashtbl.add f.cells key c;
      c

(* Unlabeled fast path: the first touch creates the cell, every later
   update is a cached-field read — no canonicalization, no hash lookup,
   no allocation. *)
let unlabeled f =
  match f.c0 with
  | Some c -> c
  | None ->
      let c = cell f [] in
      f.c0 <- Some c;
      c

(* Read path: never allocates a cell. *)
let peek f labels = Hashtbl.find_opt f.cells (canon labels)

(* Every update runs only while the registry is on, inside the
   [obs.metrics] probe, on the cell it targets. *)
let[@inline] enter f =
  !(f.fon)
  && begin
       Prof.enter f.fprof Prof.Metrics;
       true
     end

let[@inline] leave f = Prof.leave f.fprof Prof.Metrics
let target f labels = if labels == [] then unlabeled f else cell f labels

let bump c by =
  match c with Ccounter r -> r := !r + by | Cgauge _ | Chist _ -> assert false

let store c v =
  match c with Cgauge r -> r := v | Ccounter _ | Chist _ -> assert false

let raise_to c v =
  match c with
  | Cgauge r -> if v > !r then r := v
  | Ccounter _ | Chist _ -> assert false

let record c x =
  match c with Chist h -> hist_add h x | Ccounter _ | Cgauge _ -> assert false

let check_by by = if by < 0 then invalid_arg "Metrics.incr: by < 0"

let incr ?(labels = []) ?(by = 1) f =
  check_by by;
  if enter f then begin
    bump (target f labels) by;
    leave f
  end

let counter_value ?(labels = []) f =
  match peek f labels with Some (Ccounter r) -> !r | _ -> 0

let set ?(labels = []) f v =
  if enter f then begin
    store (target f labels) v;
    leave f
  end

let set_max ?(labels = []) f v =
  if enter f then begin
    raise_to (target f labels) v;
    leave f
  end

let gauge_value ?(labels = []) f =
  match peek f labels with Some (Cgauge r) -> !r | _ -> 0.0

let observe ?(labels = []) f x =
  if enter f then begin
    record (target f labels) x;
    leave f
  end

module Handle = struct
  (* The label list is canonicalized once; the cell is looked up (or
     created) on the first update and cached. *)
  type 'kind t = { fam : family; key : labels; mutable c : cell option }

  let make fam labels = { fam; key = canon labels; c = None }
  let counter = make
  let gauge = make
  let histogram = make

  let bound h =
    match h.c with
    | Some c -> c
    | None ->
        let c = cell h.fam h.key in
        h.c <- Some c;
        c

  let incr ?(by = 1) h =
    check_by by;
    if enter h.fam then begin
      bump (bound h) by;
      leave h.fam
    end

  let set h v =
    if enter h.fam then begin
      store (bound h) v;
      leave h.fam
    end

  let set_max h v =
    if enter h.fam then begin
      raise_to (bound h) v;
      leave h.fam
    end

  let observe h x =
    if enter h.fam then begin
      record (bound h) x;
      leave h.fam
    end
end

let hist_of ?(labels = []) f =
  match peek f labels with Some (Chist h) -> Some h | _ -> None

let count ?labels f =
  match hist_of ?labels f with Some h -> h.seen | None -> 0

let sample_count ?labels f =
  match hist_of ?labels f with Some h -> h.len | None -> 0

let sum ?labels f =
  match hist_of ?labels f with Some h -> h.total | None -> 0.0

let mean ?labels f =
  match hist_of ?labels f with
  | Some h when h.seen > 0 -> h.total /. float_of_int h.seen
  | Some _ | None -> 0.0

let percentile ?labels f q =
  match hist_of ?labels f with
  | Some h -> hist_percentile h q
  | None ->
      if q < 0.0 || q > 1.0 then invalid_arg "Metrics.percentile: q";
      None

let percentile_or ?labels ~default f q =
  match percentile ?labels f q with Some v -> v | None -> default

type hist_stats = {
  n : int;
  total : float;
  avg : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let hist_stats_of h =
  if h.seen = 0 then
    { n = 0; total = 0.0; avg = 0.0; min_v = 0.0; max_v = 0.0;
      p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  else begin
    let pct q = match hist_percentile h q with Some v -> v | None -> 0.0 in
    {
      n = h.seen;
      total = h.total;
      avg = h.total /. float_of_int h.seen;
      min_v = h.min_v;
      max_v = h.max_v;
      p50 = pct 0.50;
      p90 = pct 0.90;
      p99 = pct 0.99;
    }
  end

type value = Counter of int | Gauge of float | Histogram of hist_stats

type sample = {
  name : string;
  labels : labels;
  help : string;
  value : value;
}

let summary ?labels f =
  match hist_of ?labels f with
  | Some h when h.seen > 0 ->
      let s = hist_stats_of h in
      Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" s.n s.avg
        s.p50 s.p99 s.max_v
  | Some _ | None -> "n=0"

let sorted_families t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.families []
  |> List.sort (fun a b -> compare a.fname b.fname)

let sorted_cells f =
  Hashtbl.fold (fun labels c acc -> (labels, c) :: acc) f.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  List.concat_map
    (fun f ->
      List.map
        (fun (labels, c) ->
          let value =
            match c with
            | Ccounter r -> Counter !r
            | Cgauge r -> Gauge !r
            | Chist h -> Histogram (hist_stats_of h)
          in
          { name = f.fname; labels; help = f.help; value })
        (sorted_cells f))
    (sorted_families t)

let label_string labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let diff ~before ~after =
  (* Snapshots are sorted by (name, labels); a single merge pass pairs
     the cells.  Cells only present in [before] describe instruments
     that ceased to exist — impossible for one registry — so they are
     skipped rather than invented as negative samples. *)
  let key (s : sample) = (s.name, s.labels) in
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tbl (key s) s) before;
  List.filter_map
    (fun (a : sample) ->
      let changed value = Some { a with value } in
      match Hashtbl.find_opt tbl (key a) with
      | None -> (
          match a.value with
          | Counter 0 | Gauge 0.0 -> None
          | Histogram h when h.n = 0 -> None
          | _ -> Some a)
      | Some b -> (
          match (a.value, b.value) with
          | Counter va, Counter vb ->
              if va = vb then None else changed (Counter (va - vb))
          | Gauge va, Gauge vb ->
              if va = vb then None else changed (Gauge (va -. vb))
          | Histogram ha, Histogram hb ->
              let n = ha.n - hb.n in
              if n = 0 then None
              else
                (* Counts and sums subtract exactly; the distribution
                   shape (min/max/percentiles) is not decomposable, so
                   the diff reports the [after] shape. *)
                changed
                  (Histogram
                     {
                       ha with
                       n;
                       total = ha.total -. hb.total;
                       avg = (ha.total -. hb.total) /. float_of_int n;
                     })
          | _ ->
              (* Same name, different kind: registries forbid this. *)
              Some a))
    after

let value_string = function
  | Counter v -> Printf.sprintf "counter   %d" v
  | Gauge v -> Printf.sprintf "gauge     %g" v
  | Histogram h ->
      Printf.sprintf
        "histogram n=%d mean=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f \
         max=%.3f"
        h.n h.avg h.min_v h.p50 h.p90 h.p99 h.max_v

let render_diff ~before ~after =
  let buf = Buffer.create 512 in
  let rows = diff ~before ~after in
  if rows = [] then Buffer.add_string buf "(no change)\n"
  else
    List.iter
      (fun (s : sample) ->
        Buffer.add_string buf
          (Printf.sprintf "%-42s %s\n"
             (s.name ^ label_string s.labels)
             (value_string s.value)))
      rows;
  Buffer.contents buf

let render t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      let cells = sorted_cells f in
      if cells = [] then
        Buffer.add_string buf
          (Printf.sprintf "%-42s %-9s (no data)\n" f.fname
             (kind_name f.kind))
      else
        List.iter
          (fun (labels, c) ->
            let id = f.fname ^ label_string labels in
            let body =
              match c with
              | Ccounter r -> Printf.sprintf "counter   %d" !r
              | Cgauge r -> Printf.sprintf "gauge     %g" !r
              | Chist h ->
                  let s = hist_stats_of h in
                  Printf.sprintf
                    "histogram n=%d mean=%.3f min=%.3f p50=%.3f p90=%.3f \
                     p99=%.3f max=%.3f"
                    s.n s.avg s.min_v s.p50 s.p90 s.p99 s.max_v
            in
            Buffer.add_string buf (Printf.sprintf "%-42s %s\n" id body))
          cells)
    (sorted_families t);
  Buffer.contents buf
