(* Parallel-analysis benchmark: run each analysis hot path
   sequentially (no pool) and on pools of 1, 2 and 4 domains, check
   that every pooled result is identical whatever the domain count,
   report the wall-clock speedups, and write the measurements to
   BENCH_parallel.json.

   The workloads are the drivers the tentpole parallelised:
     - exact_poly: the 2^n live-set scan (Proposition 3.1);
     - monte_carlo: availability sampling with split RNG streams;
     - empirical:   strategy-load sampling on h-triang(105) (quorums
                    are never enumerated — selection is structural);
     - chaos:       the full mutex scenario grid, one run per task.

   Speedups only materialise with multiple cores; the JSON records
   [cores] so a 1-core container's ~1.0x is read for what it is. *)

module Failure = Analysis.Failure
module Strategy = Quorum.Strategy
module Rng = Quorum.Rng
module Pool = Exec.Pool
module C = Protocols.Chaos
module E = Protocols.Experiment

let jobs_list = [ 1; 2; 4 ]

type case = {
  label : string;
  seq_s : float;  (* no pool: the legacy sequential code path *)
  pooled_s : (int * float) list;  (* jobs -> wall-clock seconds *)
  agree : bool;  (* pooled results identical across jobs_list *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run [work] without a pool, then under each jobs count; [key] maps a
   result to a comparable summary (pooled runs must agree exactly). *)
let measure ~metrics ~label ~same_as_seq work key =
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
  let keys = List.map (fun (_, r, _) -> key r) pooled in
  let agree =
    match keys with
    | [] -> true
    | k0 :: rest ->
        List.for_all (( = ) k0) rest
        && ((not same_as_seq) || k0 = key seq_r)
  in
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
    ~same_as_seq:true
    (fun pool -> Failure.exact_poly ?pool s)
    (fun poly ->
      List.init (s.Quorum.System.n + 1) (Quorum.Failure_poly.fail_count poly))

let monte_carlo_case ~metrics =
  let s = Util.system "htriang(28)" in
  let trials = if !Util.fast then 100_000 else 1_000_000 in
  measure ~metrics
    ~label:(Printf.sprintf "monte_carlo htriang(28) (%d trials)" trials)
    ~same_as_seq:false (* pooled sampling uses split streams *)
    (fun pool ->
      Failure.monte_carlo ?pool ~trials (Rng.create 7) s ~p:0.2)
    (fun (est : Failure.estimate) -> [ est.mean; est.half_width ])

let empirical_case ~metrics =
  let s = Util.system "htriang(105)" in
  let trials = if !Util.fast then 20_000 else 100_000 in
  measure ~metrics
    ~label:(Printf.sprintf "empirical htriang(105) (%d trials)" trials)
    ~same_as_seq:false
    (fun pool ->
      Strategy.empirical_of_select ?pool ~n:s.Quorum.System.n ~trials
        (Rng.create 9) s.Quorum.System.select)
    (fun (e : Strategy.empirical) ->
      (Array.to_list e.loads, e.max_load, e.avg_size, e.misses))

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
    ~same_as_seq:true
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
      empirical_case ~metrics;
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
