(* Chaos harness comparison: every quorum system through every standard,
   crash-recovery and churn fault scenario, for all three protocols.
   Violations and stale reads must be 0 everywhere — the scenarios
   stress liveness, never safety — and the target fails otherwise.

   With --jobs N the (cell, scenario) grid is flattened into one pool
   task per run, each building its own cell (nothing mutable is shared
   across domains); rows print in grid order, byte-identical to the
   sequential sweep.  Cells, seeds and scenarios are
   Protocols.Experiment's; the seeds are echoed into BENCH_chaos.json,
   and `quorumctl chaos` replays any row. *)

module C = Protocols.Chaos
module E = Protocols.Experiment

let horizon () = E.chaos_horizon ~fast:!Util.fast

(* Under --metrics, each run gets its own registry and dumps it after
   the report row. *)
let maybe_obs () = if !Util.metrics then Some (Obs.create ()) else None

let metrics_dump ~spec ~label = function
  | None -> ""
  | Some obs ->
      Printf.sprintf "--- metrics %s / %s ---\n%s" spec label
        (Obs.Metrics.render (Obs.metrics obs))

(* One protocol's section: every (cell, scenario) pair of the grid, in
   grid order.  A grid entry is the name the metrics dump uses and a
   builder of the cell; n differs across systems (15 vs 16), so the
   scenarios are built per cell — the partition group scales with n.
   Prints the rows, fails on the first unsafe run and returns the BENCH
   objects. *)
let section ~title protocol grid =
  Printf.printf "\n== chaos: %s under fault scenarios ==\n" title;
  Printf.printf "%s\n" (E.header protocol);
  let tasks =
    List.concat_map
      (fun (name, make) ->
        let n = E.universe (make ()) in
        List.map
          (fun scenario -> (name, make, scenario))
          (E.chaos_scenarios ~n ~horizon:(horizon ())))
      grid
  in
  let outputs =
    Exec.Pool.map ?pool:(Util.pool ())
      (fun (name, make, scenario) ->
        let obs = maybe_obs () in
        let o = E.run ?obs (make ()) scenario in
        ( Printf.sprintf "%s\n%s" (E.row o.E.report)
            (metrics_dump ~spec:name ~label:scenario.C.label obs),
          o.E.report ))
      tasks
  in
  List.iter (fun (display, _) -> print_string display) outputs;
  let reports = List.map snd outputs in
  Option.iter failwith (List.find_map E.verdict reports);
  List.map E.json reports

let mutex_grid =
  List.map
    (fun spec -> (spec, fun () -> E.Mutex_cell (Util.system spec)))
    [ "majority(15)"; "hgrid(4x4)"; "htgrid(4x4)"; "htriang(15)" ]

let store_grid =
  List.map
    (fun (rspec, wspec, name) ->
      ( name,
        fun () ->
          E.Store_cell
            {
              read_system = Util.system rspec;
              write_system = Util.system wspec;
              name;
              read_fraction = E.store_read_fraction;
            } ))
    [
      ("majority(15)", "majority(15)", "majority(15)");
      ("hgrid-read(4x4)", "hgrid-write(4x4)", "hgrid-r/w(4x4)");
      ("htgrid(4x4)", "htgrid(4x4)", "htgrid(4x4)");
      ("htriang(15)", "htriang(15)", "htriang(15)");
    ]

(* Reconfiguration under chaos: switch initial -> next -> initial
   mid-traffic while the scenario's faults (including crash-restart
   and amnesia windows) land during the seal / install sequence. *)
let reconfig_grid =
  List.map
    (fun (ispec, nspec, name) ->
      ( name,
        fun () ->
          E.Reconfig_cell
            { initial = Util.system ispec; next = Util.system nspec; name } ))
    [
      ("majority(15)", "htriang(15)", "majority->htriang");
      ("htgrid(4x4)", "hgrid(4x4)", "htgrid->hgrid");
    ]

let write_json ~mutex ~store ~reconfig =
  let oc = open_out (Util.out_path "BENCH_chaos.json") in
  let block rows = String.concat ",\n" (List.map (fun j -> "    " ^ j) rows) in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"chaos\",\n\
    \  \"fast\": %b,\n\
    \  \"horizon\": %g,\n\
    \  \"seeds\": {\"mutex\": %d, \"store\": %d, \"reconfig\": %d},\n\
    \  \"mutex\": [\n%s\n  ],\n\
    \  \"store\": [\n%s\n  ],\n\
    \  \"reconfig\": [\n%s\n  ]\n\
     }\n"
    !Util.fast (horizon ()) (E.seed E.Mutex) (E.seed E.Store)
    (E.seed E.Reconfig) (block mutex) (block store) (block reconfig);
  close_out oc

let run () =
  let mutex = section ~title:"mutual exclusion" E.Mutex mutex_grid in
  let store = section ~title:"replicated store" E.Store store_grid in
  let reconfig = section ~title:"reconfiguration" E.Reconfig reconfig_grid in
  write_json ~mutex ~store ~reconfig;
  Printf.printf
    "\n  wrote BENCH_chaos.json (seeds: mutex %d, store %d, reconfig %d)\n"
    (E.seed E.Mutex) (E.seed E.Store) (E.seed E.Reconfig)
