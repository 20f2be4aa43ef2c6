(* Parallel-analysis benchmark: run each analysis hot path without a
   pool and on pools of 1, 2 and 4 domains, check that every pooled
   result equals the sequential one, report the wall-clock speedups,
   and write the measurements to BENCH_parallel.json.

   The workloads:
     - exact_poly:  the 2^n live-set walk (Proposition 3.1);
     - monte_carlo: availability sampling, in trial ranges that each
                    start from an advanced copy of one stream;
     - chaos:       the full mutex scenario grid, one run per task.

   Speedups only materialise with multiple cores; the JSON records
   [cores] so a 1-core container's ~1.0x is read for what it is. *)

module Failure = Analysis.Failure
module Rng = Quorum.Rng
module Pool = Exec.Pool
module C = Protocols.Chaos
module E = Protocols.Experiment

let jobs_list = [ 1; 2; 4 ]

type case = {
  label : string;
  seq_s : float;  (* no pool *)
  pooled_s : (int * float) list;  (* jobs -> wall-clock seconds *)
  agree : bool;  (* every pooled result equals the sequential one *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run [work] without a pool, then under each jobs count; [key] maps a
   result to a comparable summary (every run must agree exactly). *)
let measure ~metrics ~label work key =
  let seq_r, seq_s = time (fun () -> work None) in
  let pooled =
    List.map
      (fun jobs ->
        Pool.with_pool ~name:(Printf.sprintf "j%d" jobs) ~metrics ~jobs
          (fun pool ->
            let r, s = time (fun () -> work (Some pool)) in
            (jobs, r, s)))
      jobs_list
  in
  let agree = List.for_all (fun (_, r, _) -> key r = key seq_r) pooled in
  {
    label;
    seq_s;
    pooled_s = List.map (fun (jobs, _, s) -> (jobs, s)) pooled;
    agree;
  }

let exact_poly_case ~metrics =
  let spec = if !Util.fast then "grid-rw(4x4)" else "grid-rw(4x6)" in
  (* Without its availability counts, so that the pool walks the
     masks. *)
  let s = { (Util.system spec) with Quorum.System.avail_counts = None } in
  measure ~metrics
    ~label:(Printf.sprintf "exact_poly %s (2^%d)" spec s.Quorum.System.n)
    (fun pool -> Failure.exact_poly ?pool s)
    (fun poly ->
      List.init (s.Quorum.System.n + 1) (Quorum.Failure_poly.fail_count poly))

let monte_carlo_case ~metrics =
  let s = Util.system "htriang(28)" in
  let trials = if !Util.fast then 100_000 else 1_000_000 in
  measure ~metrics
    ~label:(Printf.sprintf "monte_carlo htriang(28) (%d trials)" trials)
    (fun pool ->
      let rng = Rng.create 7 in
      let est = Failure.monte_carlo ?pool ~trials rng s ~p:0.2 in
      (est, Rng.bits64 rng))
    (fun ((est : Failure.estimate), next) ->
      (* The caller's stream must end where the sequential loop leaves
         it: compare the draw after the call too. *)
      (est.mean, est.half_width, next))

let chaos_case ~metrics =
  let horizon = if !Util.fast then 100.0 else 400.0 in
  let specs = [ "majority(15)"; "hgrid(4x4)"; "htgrid(4x4)"; "htriang(15)" ] in
  let tasks =
    List.concat_map
      (fun spec ->
        let n = (Util.system spec).Quorum.System.n in
        List.map
          (fun scenario () ->
            let cell = E.Mutex_cell (Util.system spec) in
            E.row (E.run cell scenario).E.report)
          (C.standard ~n ~horizon))
      specs
  in
  measure ~metrics
    ~label:(Printf.sprintf "chaos mutex sweep (%d runs)" (List.length tasks))
    (fun pool -> Pool.map ?pool (fun task -> task ()) tasks)
    Fun.id

(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let case_json c =
  let pooled =
    List.map
      (fun (jobs, s) ->
        Printf.sprintf
          "{\"jobs\": %d, \"seconds\": %.6f, \"speedup\": %.3f}" jobs s
          (c.seq_s /. s))
      c.pooled_s
  in
  Printf.sprintf
    "    {\"case\": \"%s\", \"sequential_seconds\": %.6f, \"agree\": %b, \
     \"pooled\": [%s]}"
    (json_escape c.label) c.seq_s c.agree
    (String.concat ", " pooled)

let write_json ~cores cases =
  let oc = open_out (Util.out_path "BENCH_parallel.json") in
  Printf.fprintf oc
    "{\n  \"bench\": \"parallel analysis engine\",\n  \"cores\": %d,\n  \
     \"fast\": %b,\n  \"cases\": [\n%s\n  ]\n}\n"
    cores !Util.fast
    (String.concat ",\n" (List.map case_json cases));
  close_out oc

let run () =
  Util.print_header
    "Parallel analysis engine: sequential vs pooled (jobs = 1, 2, 4)";
  let cores = Pool.default_jobs () in
  Printf.printf
    "  (%d core%s recommended by the runtime; speedup needs > 1)\n" cores
    (if cores = 1 then "" else "s");
  let metrics = Obs.Metrics.create () in
  let cases =
    [
      exact_poly_case ~metrics;
      monte_carlo_case ~metrics;
      chaos_case ~metrics;
    ]
  in
  Printf.printf "  %-38s %-10s %s\n" "case" "seq (s)"
    "pooled s (speedup) for jobs=1,2,4";
  List.iter
    (fun c ->
      let pooled =
        String.concat "  "
          (List.map
             (fun (jobs, s) ->
               Printf.sprintf "j%d %.3f (%.2fx)" jobs s (c.seq_s /. s))
             c.pooled_s)
      in
      Printf.printf "  %-38s %-10.3f %s%s\n" c.label c.seq_s pooled
        (if c.agree then "" else "  RESULTS DISAGREE");
      if not c.agree then exit 1)
    cases;
  write_json ~cores cases;
  Printf.printf "  wrote BENCH_parallel.json\n";
  Printf.printf "\n  pool instruments (exec.*):\n%s"
    (Obs.Metrics.render metrics)
