(* The end-to-end performance ledger.

   Usage:
     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--spans DIR]
     e2e.exe compare A B

   One workload per process (store-read, store-write, chaos-mix,
   analysis).  It prints every metric by name with its unit, then one
   full JSON report line (what [compare] reads), then the result line:
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
   The traced rep's bench-side spans are written as JSONL under DIR
   (default bench/e2e/out).  Exit status 1 when any correctness check
   failed (each is also named on stderr), 2 on bad usage. *)

module L = E2e_ledger

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--spans DIR]\n\
    \       e2e.exe compare A B";
  exit 2

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("error: " ^ msg); exit 2) fmt

let int_arg flag v =
  match int_of_string_opt v with Some n when n >= 0 -> n | _ -> die "%s expects a non-negative integer" flag

let write_spans ~dir (r : L.Ledger.result) t =
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d.spans.jsonl" r.L.Ledger.workload r.L.Ledger.seed)
  in
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    L.Tracer.write_spans t path
  with
  | () -> Printf.printf "spans: %s\n" path
  | exception Sys_error msg -> Printf.eprintf "warning: spans not written: %s\n" msg

let measure args =
  let workload = ref None and seed = ref 46 and seconds = ref 20 and trace = ref false in
  let spans = ref "bench/e2e/out" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_arg "--seconds" v;
        parse rest
    | "--trace" :: v :: rest ->
        (trace :=
           match v with "0" -> false | "1" -> true | _ -> die "--trace expects 0 or 1");
        parse rest
    | "--spans" :: v :: rest ->
        spans := v;
        parse rest
    | a :: _ -> die "unknown argument %s" a
  in
  parse args;
  let w =
    match !workload with
    | None -> usage ()
    | Some name -> (
        match L.Workloads.find name with
        | Some w -> w
        | None ->
            die "unknown workload %s (known: %s)" name
              (String.concat ", " (List.map (fun (w : L.Workloads.t) -> w.L.Workloads.name) L.Workloads.all)))
  in
  let r = L.Ledger.run ~seconds:(float_of_int !seconds) ~trace:!trace w ~seed:!seed in
  L.Ledger.print_table r;
  Option.iter (write_spans ~dir:!spans r) r.L.Ledger.tracer;
  print_endline (L.Json.to_string (L.Ledger.report_json r));
  print_endline (L.Json.to_string (L.Ledger.result_json r ~trace:!trace));
  (* Standard output may be read only for its last line; name every
     failed check on stderr too. *)
  List.iter (Printf.eprintf "error: check failed: %s\n") r.L.Ledger.problems;
  exit (if r.L.Ledger.correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (L.Compare.run a b)
  | "compare" :: _ -> usage ()
  | [] -> usage ()
  | args -> measure args
