module Bitset = Quorum.Bitset
module Rng = Quorum.Rng
module Strategy = Quorum.Strategy
module System = Quorum.System
module Registry = Core.Registry

type source = Lp | Analytic | Empirical

type point = {
  label : string;
  read_spec : string;
  write_spec : string;
  n : int;
  load : float;
  availability : float;
  rtt : float;
  size : float;
  source : source;
}

type candidate = { label : string; read_spec : string; write_spec : string }

type report = {
  workload : Workload.t;
  n : int;
  seed : int;
  trials : int;
  frontier : point list;
  dominated : (point * string) list;
  unresilient : (point * string) list;
  errors : (string * string) list;
  not_instantiable : string list;
}

(* ------------------------------------------------------------------ *)
(* Candidate enumeration                                               *)
(* ------------------------------------------------------------------ *)

let spec_family spec =
  match Registry.parse_spec spec with Ok (f, _) -> Some f | Error _ -> None

let candidates ~n =
  let inst = Registry.instantiations ~n in
  let symmetric =
    List.concat_map
      (fun ((e : Registry.entry), specs) ->
        match e.kind with
        | Registry.Coterie ->
            List.map
              (fun s -> { label = s; read_spec = s; write_spec = s })
              specs
        | Registry.Read_half _ | Registry.Write_half _ -> [])
      inst
  in
  let pairs =
    List.concat_map
      (fun ((e : Registry.entry), specs) ->
        match e.kind with
        | Registry.Read_half write_family ->
            List.filter_map
              (fun read_spec ->
                match Registry.parse_spec read_spec with
                | Error _ -> None
                | Ok (_, args) -> (
                    let write_spec =
                      Printf.sprintf "%s(%s)" write_family
                        (String.concat "," args)
                    in
                    match Registry.build write_spec with
                    | Ok s when s.System.n = n ->
                        Some
                          {
                            label = read_spec ^ "+" ^ write_spec;
                            read_spec;
                            write_spec;
                          }
                    | _ -> None))
              specs
        | Registry.Coterie | Registry.Write_half _ -> [])
      inst
  in
  let thresh =
    List.init n (fun i ->
        let r = i + 1 in
        let w = n + 1 - r in
        let read_spec = Printf.sprintf "thresh(%d-%d)" n r in
        let write_spec = Printf.sprintf "thresh(%d-%d)" n w in
        { label = read_spec ^ "+" ^ write_spec; read_spec; write_spec })
  in
  symmetric @ pairs @ thresh

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let threshold_pair_load ~n ~read_fraction ~r =
  let fr = read_fraction in
  ((fr *. float_of_int r) +. ((1.0 -. fr) *. float_of_int (n + 1 - r)))
  /. float_of_int n

let best_threshold_pair ~n ~f ~read_fraction =
  let lo = f + 1 and hi = n - f in
  if lo > hi then None
  else begin
    let best = ref None in
    for r = lo to hi do
      let l = threshold_pair_load ~n ~read_fraction ~r in
      match !best with
      | Some (_, bl) when bl <= l -> ()
      | _ -> best := Some (r, l)
    done;
    !best
  end

let mixed_load ~read_fraction ~n ~reads ~writes =
  let fr = read_fraction in
  let rq = Array.of_list reads and wq = Array.of_list writes in
  let mr = Array.length rq and mw = Array.length wq in
  if mr = 0 || mw = 0 then Error "Optimizer.mixed_load: empty quorum list"
  else begin
    (* Variables: wR_1..wR_mr, wW_1..wW_mw, t.  Minimize t subject to
       sum wR = 1, sum wW = 1 and, per element i,
       fr * sum_(read j : i in j) wR_j
         + (1 - fr) * sum_(write k : i in k) wW_k <= t. *)
    let nv = mr + mw + 1 in
    let c = Array.make nv 0.0 in
    c.(nv - 1) <- 1.0;
    let a_ub =
      Array.init n (fun i ->
          let row = Array.make nv 0.0 in
          Array.iteri (fun j q -> if Bitset.mem q i then row.(j) <- fr) rq;
          Array.iteri
            (fun j q -> if Bitset.mem q i then row.(mr + j) <- 1.0 -. fr)
            wq;
          row.(nv - 1) <- -1.0;
          row)
    in
    let b_ub = Array.make n 0.0 in
    let a_eq =
      [|
        Array.init nv (fun j -> if j < mr then 1.0 else 0.0);
        Array.init nv (fun j -> if j >= mr && j < mr + mw then 1.0 else 0.0);
      |]
    in
    let b_eq = [| 1.0; 1.0 |] in
    match Lp.Simplex.solve ~c ~a_ub ~b_ub ~a_eq ~b_eq () with
    | Lp.Simplex.Optimal { objective; solution } ->
        let prune qs off m =
          let kept = ref [] in
          for j = m - 1 downto 0 do
            let w = solution.(off + j) in
            if w > 1e-12 then kept := (qs.(j), w) :: !kept
          done;
          let kept = Array.of_list !kept in
          Strategy.make (Array.map fst kept) (Array.map snd kept)
        in
        Ok (objective, prune rq 0 mr, prune wq mr mw)
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
        Error "Optimizer.mixed_load: LP solver failed"
  end

(* ------------------------------------------------------------------ *)
(* Pareto dominance                                                    *)
(* ------------------------------------------------------------------ *)

let dominates a b =
  a.load <= b.load
  && a.availability >= b.availability
  && a.rtt <= b.rtt && a.size <= b.size
  && (a.load < b.load
     || a.availability > b.availability
     || a.rtt < b.rtt || a.size < b.size)

let point_order a b =
  match compare a.load b.load with 0 -> compare a.label b.label | c -> c

let pareto points =
  let sorted = List.sort point_order points in
  let dominated_by p = List.exists (fun q -> dominates q p) sorted in
  let frontier = List.filter (fun p -> not (dominated_by p)) sorted in
  let dominated =
    List.filter_map
      (fun p ->
        if not (dominated_by p) then None
        else
          (* Dominance is transitive, so a dominated point always has a
             dominator on the frontier. *)
          match List.find_opt (fun q -> dominates q p) frontier with
          | Some q -> Some (p, q)
          | None -> Some (p, p))
      sorted
  in
  (frontier, dominated)

(* ------------------------------------------------------------------ *)
(* Per-candidate evaluation                                            *)
(* ------------------------------------------------------------------ *)

let resilience_witness ~f (rs : System.t) (ws : System.t) =
  let n = rs.System.n in
  if f = 0 then begin
    let full = Bitset.universe n in
    if rs.System.avail full && ws.System.avail full then None else Some "{}"
  end
  else begin
    let witness = ref None in
    List.iter
      (fun crash ->
        if !witness = None then begin
          let live = Bitset.universe n in
          List.iter (fun i -> Bitset.remove live i) crash;
          if not (rs.System.avail live && ws.System.avail live) then
            witness :=
              Some
                (Printf.sprintf "{%s}"
                   (String.concat "," (List.map string_of_int crash)))
        end)
      (Quorum.Combinat.ksubsets (List.init n Fun.id) f);
    !witness
  end

let mean_rtt_of_quorum topo ~n q =
  let s = ref 0.0 in
  for o = 0 to n - 1 do
    s := !s +. Sim.Topology.rtt topo ~from:o q
  done;
  !s /. float_of_int n

let rtt_of_strategy topo ~n (st : Strategy.t) =
  let total = ref 0.0 in
  Array.iteri
    (fun j q ->
      let w = st.Strategy.probs.(j) in
      if w > 0.0 then total := !total +. (w *. mean_rtt_of_quorum topo ~n q))
    st.Strategy.quorums;
  !total

let rtt_samples = 64

let rtt_of_select topo ~n rng select =
  let live = Bitset.universe n in
  let total = ref 0.0 and k = ref 0 in
  for _ = 1 to rtt_samples do
    match select rng ~live with
    | None -> ()
    | Some q ->
        incr k;
        total := !total +. mean_rtt_of_quorum topo ~n q
  done;
  if !k = 0 then 0.0 else !total /. float_of_int !k

(* The read threshold r when the candidate is a thresh(n-r)+thresh(n-w)
   pair — the one candidate shape with a closed-form load. *)
let thresh_read_r cand =
  match
    (Registry.parse_spec cand.read_spec, Registry.parse_spec cand.write_spec)
  with
  | Ok ("thresh", [ a ]), Ok ("thresh", [ _ ]) -> (
      match String.split_on_char '-' a with
      | [ _; r ] -> int_of_string_opt r
      | _ -> None)
  | _ -> None

(* [Load.try_optimal] on a quorum list already enumerated, as masks. *)
let lp_load ~n masks =
  try Ok (Load.optimal_of_masks ~n masks)
  with Invalid_argument msg | Failure msg -> Error msg

(* [evaluate], with [load_lp] in place of [Load.try_optimal] for a
   symmetric candidate that is not a threshold pair. *)
let evaluate_with ~load_lp ~trials ~seed ~workload cand =
  match Registry.build cand.read_spec with
  | Error _ as e -> e
  | Ok rs -> (
      let symmetric = cand.read_spec = cand.write_spec in
      match if symmetric then Ok rs else Registry.build cand.write_spec with
      | Error _ as e -> e
      | Ok ws -> (
          let n = rs.System.n in
          if ws.System.n <> n then
            Error
              (Printf.sprintf "%s: read/write universe sizes differ (%d vs %d)"
                 cand.label n ws.System.n)
          else
            match Workload.validate workload ~n with
            | Error _ as e -> e
            | Ok () -> (
                try
                  let fr = workload.Workload.read_fraction in
                  let fw = 1.0 -. fr in
                  let rng = Rng.create seed in
                  let witness =
                    resilience_witness ~f:workload.Workload.resilience rs ws
                  in
                  (* Load, expected quorum size, and the strategies (when
                     the LP yields them) for the RTT objective. *)
                  let load, size, source, strategies =
                    match thresh_read_r cand with
                    | Some r ->
                        let w = n + 1 - r in
                        ( threshold_pair_load ~n ~read_fraction:fr ~r,
                          (fr *. float_of_int r) +. (fw *. float_of_int w),
                          Analytic,
                          None )
                    | None -> (
                        if symmetric then
                          match load_lp rs with
                          | Ok { Load.load; strategy } ->
                              ( load,
                                Strategy.average_quorum_size strategy,
                                Lp,
                                Some (strategy, strategy) )
                          | Error _ ->
                              (* No enumerable quorum list: measure the
                                 construction's own selection strategy. *)
                              let emp =
                                Strategy.empirical_of_select ~n ~trials rng
                                  rs.System.select
                              in
                              ( emp.Strategy.max_load,
                                emp.Strategy.avg_size,
                                Empirical,
                                None )
                        else
                          match (System.quorums rs, System.quorums ws) with
                          | Error e, _ | _, Error e -> failwith e
                          | Ok reads, Ok writes -> (
                              match
                                mixed_load ~read_fraction:fr ~n ~reads ~writes
                              with
                              | Error e -> failwith e
                              | Ok (load, str, stw) ->
                                  ( load,
                                    (fr *. Strategy.average_quorum_size str)
                                    +. (fw *. Strategy.average_quorum_size stw),
                                    Lp,
                                    Some (str, stw) )))
                  in
                  let fp s =
                    match
                      Failure.of_workload ~trials ~rng:(Rng.split rng)
                        ~workload s
                    with
                    | Ok f -> f
                    | Error e -> failwith e
                  in
                  let f_r = fp rs in
                  let f_w = if symmetric then f_r else fp ws in
                  let availability =
                    (fr *. (1.0 -. f_r)) +. (fw *. (1.0 -. f_w))
                  in
                  let rtt =
                    match workload.Workload.latency with
                    | Workload.No_latency -> 0.0
                    | Workload.Topology topo -> (
                        match strategies with
                        | Some (str, stw) ->
                            (fr *. rtt_of_strategy topo ~n str)
                            +. (fw *. rtt_of_strategy topo ~n stw)
                        | None ->
                            let rtt_r =
                              rtt_of_select topo ~n rng rs.System.select
                            in
                            let rtt_w =
                              if symmetric then rtt_r
                              else rtt_of_select topo ~n rng ws.System.select
                            in
                            (fr *. rtt_r) +. (fw *. rtt_w))
                  in
                  Ok
                    ( {
                        label = cand.label;
                        read_spec = cand.read_spec;
                        write_spec = cand.write_spec;
                        n;
                        load;
                        availability;
                        rtt;
                        size;
                        source;
                      },
                      witness )
                with Invalid_argument msg | Failure msg -> Error msg)))

let evaluate ?(trials = 50_000) ?(seed = 47) ~workload cand =
  evaluate_with ~load_lp:Load.try_optimal ~trials ~seed ~workload cand

(* The universe size and ordered quorum list of a candidate whose load
   is the plain LP: symmetric, not a threshold pair, and enumerable
   over at most 62 processes.  The list is kept as one mask per quorum,
   equal exactly when the lists are, so that a sweep can hold every
   candidate's list at once: majority(15)'s 6,435 quorums take 6,435
   words instead of about 51,000.  A system that lists its masks
   directly ([min_masks]: weighted voting) builds no bitset list at
   all.  [None] leaves the candidate to its own [Load.try_optimal]. *)
let lp_key cand =
  if cand.read_spec <> cand.write_spec || thresh_read_r cand <> None then None
  else
    match Registry.build cand.read_spec with
    | Ok { System.n; min_masks = Some masks; _ } when n <= Bitset.bits_per_word
      ->
        Some (n, masks ())
    | Ok s when s.System.n <= Bitset.bits_per_word -> (
        let n = s.System.n in
        match System.quorums s with
        | Ok quorums when List.for_all (fun q -> Bitset.capacity q = n) quorums
          ->
            let masks = Array.make (List.length quorums) 0 in
            List.iteri (fun j q -> masks.(j) <- Bitset.to_mask q) quorums;
            Some (n, masks)
        | Ok _ | Error _ -> None)
    | Ok _ | Error _ -> None

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let sweep ?pool ?(trials = 50_000) ?(seed = 47) ?candidates:cand_list ~workload
    ~n () =
  match Workload.validate workload ~n with
  | Error _ as e -> e
  | Ok () ->
      let cand_list =
        match cand_list with Some c -> c | None -> candidates ~n
      in
      if cand_list = [] then Error "Optimizer.sweep: no candidates"
      else begin
        let arr = Array.of_list cand_list in
        (* Three batches of chunks, each chunk writing only its own
           slot, so pooled runs are bit-identical for any domain count.
           Chunk bodies never touch [pool] (nested submission is
           rejected). *)
        (* Candidates with equal LPs share one solve: the LP is a
           function of the universe size and the ordered quorum list
           (Bland's rule takes the lowest column), not of the workload.
           Groups are numbered in candidate order. *)
        let keys =
          Exec.Pool.init ?pool (Array.length arr) (fun i -> lp_key arr.(i))
        in
        let groups = Hashtbl.create 16 and reps = ref [] in
        let group_of =
          Array.map
            (Option.map (fun key ->
                 match Hashtbl.find_opt groups key with
                 | Some g -> g
                 | None ->
                     let g = Hashtbl.length groups in
                     Hashtbl.add groups key g;
                     reps := key :: !reps;
                     g))
            keys
        in
        let reps = Array.of_list (List.rev !reps) in
        let loads =
          Exec.Pool.init ?pool (Array.length reps) (fun g ->
              let n, masks = reps.(g) in
              lp_load ~n masks)
        in
        (* One chunk per candidate; each derives its own seed from its
           index and builds its systems fresh, reading its group's LP
           result. *)
        let eval i =
          let c = arr.(i) in
          let load_lp rs =
            match group_of.(i) with
            | Some g -> loads.(g)
            | None -> Load.try_optimal rs
          in
          let seed = seed + (997 * i) in
          (c, evaluate_with ~load_lp ~trials ~seed ~workload c)
        in
        let results = Exec.Pool.init ?pool (Array.length arr) eval in
        let errors = ref [] and unresilient = ref [] and ok = ref [] in
        Array.iter
          (fun ((c : candidate), res) ->
            match res with
            | Error e -> errors := (c.label, e) :: !errors
            | Ok (p, Some w) ->
                unresilient :=
                  ( p,
                    Printf.sprintf "not %d-resilient: fails crash set %s"
                      workload.Workload.resilience w )
                  :: !unresilient
            | Ok (p, None) -> ok := p :: !ok)
          results;
        let frontier, dominated = pareto (List.rev !ok) in
        let dominated =
          List.map
            (fun ((p : point), (q : point)) ->
              ( p,
                Printf.sprintf
                  "dominated by %s (load %.4f vs %.4f, availability %.6f vs \
                   %.6f, rtt %.3f vs %.3f, size %.2f vs %.2f)"
                  q.label q.load p.load q.availability p.availability q.rtt
                  p.rtt q.size p.size ))
            dominated
        in
        let covered =
          List.concat_map
            (fun c ->
              List.filter_map spec_family [ c.read_spec; c.write_spec ])
            cand_list
        in
        let not_instantiable =
          List.filter_map
            (fun (e : Registry.entry) ->
              if List.mem e.family covered then None else Some e.family)
            Registry.catalogue
        in
        Ok
          {
            workload;
            n;
            seed;
            trials;
            frontier;
            dominated;
            unresilient = List.rev !unresilient;
            errors = List.rev !errors;
            not_instantiable;
          }
      end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let source_label = function
  | Lp -> "lp"
  | Analytic -> "analytic"
  | Empirical -> "empirical"

let render r =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "workload: %s\n" (Workload.describe r.workload);
  pf "universe: n = %d; seed = %d; trials = %d\n\n" r.n r.seed r.trials;
  let width =
    List.fold_left
      (fun w (p : point) -> max w (String.length p.label))
      9 r.frontier
  in
  pf "Pareto frontier (%d point%s):\n" (List.length r.frontier)
    (if List.length r.frontier = 1 then "" else "s");
  pf "  %-*s  %8s  %12s  %8s  %6s  %s\n" width "system" "load" "availability"
    "rtt" "size" "source";
  List.iter
    (fun (p : point) ->
      pf "  %-*s  %8.4f  %12.6f  %8.3f  %6.2f  %s\n" width p.label p.load
        p.availability p.rtt p.size (source_label p.source))
    r.frontier;
  if r.dominated <> [] then begin
    pf "\ndominated (%d):\n" (List.length r.dominated);
    List.iter
      (fun ((p : point), why) -> pf "  %s: %s\n" p.label why)
      r.dominated
  end;
  if r.unresilient <> [] then begin
    pf "\nbelow the resilience target (%d):\n" (List.length r.unresilient);
    List.iter
      (fun ((p : point), why) -> pf "  %s: %s\n" p.label why)
      r.unresilient
  end;
  if r.errors <> [] then begin
    pf "\nnot evaluated (%d):\n" (List.length r.errors);
    List.iter (fun (l, e) -> pf "  %s: %s\n" l e) r.errors
  end;
  if r.not_instantiable <> [] then
    pf "\nno instantiation at n = %d: %s\n" r.n
      (String.concat ", " r.not_instantiable);
  Buffer.contents buf
