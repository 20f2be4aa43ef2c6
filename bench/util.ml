(* Shared helpers for the reproduction harness: table rendering and
   paper-vs-measured cells. *)

let fast = ref false
(* --fast replaces the 2^28-scale exact enumerations with Monte-Carlo
   estimates (1e6 trials); systems that count their available live
   sets stay exact. *)

let metrics = ref false
(* --metrics makes the chaos target dump each run's full metrics
   registry (rpc retransmits, fd accuracy, latency histograms, ...)
   after its report row. *)

let jobs = ref 1
(* --jobs N runs the analysis hot paths (exact enumerations, Monte
   Carlo, chaos sweeps) on an N-domain pool.  A pool changes only
   where their chunks run, so results are identical for any value; 1
   runs the same chunks inline. *)

let gate : string option ref = ref None
(* --gate FILE makes the engine target compare its measurements
   against a committed baseline JSON and exit non-zero on regression
   (relay ops/sec normalized by an in-process calibration loop, words
   per relay op). *)

let the_pool : Exec.Pool.t option ref = ref None

(* The shared bench pool, created on first use once --jobs is known.
   [None] when --jobs <= 1: no domain to spawn. *)
let pool () =
  if !jobs <= 1 then None
  else
    match !the_pool with
    | Some _ as p -> p
    | None ->
        let p = Exec.Pool.create ~name:"bench" ~jobs:!jobs () in
        the_pool := Some p;
        Some p

(* Result-typed entry points with uniform error rendering: the bench
   never calls the raising Registry/System entry points. *)
let ok_or_die = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let system spec = ok_or_die (Core.Registry.build spec)

(* Benchmark artifacts (BENCH_*.json) belong at the repo root whatever
   directory the harness was launched from: walk up to the dune-project
   marker; fall back to the cwd when run outside the tree. *)
let out_path name =
  let rec find dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  match find (Sys.getcwd ()) with
  | Some root -> Filename.concat root name
  | None -> name

let line width = String.make width '-'

let print_header title =
  Printf.printf "\n%s\n%s\n" title (line (String.length title))

(* A measured cell next to the paper's value.  "=" exact to the paper's
   six decimals, "~" within 15%, "!" a real deviation (discussed in
   EXPERIMENTS.md). *)
let cell ours paper =
  let marker =
    if abs_float (ours -. paper) < 5e-7 then "="
    else if paper <> 0.0 && abs_float (ours -. paper) /. paper < 0.15 then "~"
    else "!"
  in
  Printf.sprintf "%.6f (paper %.6f)%s" ours paper marker

let row label cells =
  Printf.printf "%-10s %s\n" label (String.concat "  " cells)

(* Under --fast, a system over 24 processes is sampled when its exact
   polynomial needs the 2^n walk; one that counts its available live
   sets gets it in well under a millisecond. *)
let sampled (system : Quorum.System.t) =
  !fast && system.n > 24 && system.avail_counts = None

(* Exact failure probability, or Monte Carlo for a [sampled] system. *)
let failure_probability system ~p =
  if sampled system then
    (Analysis.Failure.monte_carlo ?pool:(pool ()) ~trials:1_000_000
       (Quorum.Rng.create 1) system ~p)
      .mean
  else Analysis.Failure.exact ?pool:(pool ()) system ~p

(* Evaluate several p values off one polynomial (one enumeration). *)
let failure_row system ps =
  if sampled system then
    List.map (fun p -> failure_probability system ~p) ps
  else begin
    let poly = Analysis.Failure.exact_poly ?pool:(pool ()) system in
    List.map (fun p -> Quorum.Failure_poly.eval poly ~p) ps
  end
