(* Growing the hierarchical triangle online (section 5, "Introducing
   new elements") — the growth rules executed as live reconfigurations
   while clients keep reading and writing.

   We start a replicated register on h-triang(15), grow the triangle
   twice (adding processes, improving availability) and finally jump to
   the native h-triang(21); the consistency monitor confirms no read
   ever misses a committed write across any switch.

   Run with: dune exec examples/growth_demo.exe *)

module Engine = Sim.Engine
module Reconfig = Protocols.Reconfig

let () =
  let t0 = Core.Htriang.standard ~rows:5 () in
  let t1 = Option.get (Core.Htriang.grow_unit_triangle t0) in
  let t2 = Option.get (Core.Htriang.grow_square_grid t1) in
  let t3 = Core.Htriang.standard ~rows:6 () in
  Printf.printf "configurations (failure probability at p = 0.1):\n";
  List.iter
    (fun (label, t) ->
      Printf.printf "  %-28s n=%-3d F(0.1)=%.6f\n" label t.Core.Htriang.n
        (Core.Htriang.failure_probability t ~p:0.1))
    [
      ("h-triang(15)", t0);
      ("+ unit-triangle growth", t1);
      ("+ square-grid growth", t2);
      ("native h-triang(21)", t3);
    ];
  let engine = Engine.create ~seed:3 ~nodes:21 () in
  let rc =
    Reconfig.of_config engine
      ~config:Protocols.Client_config.(default |> with_timeout 40.0)
      ~initial:(Core.Htriang.system t0) ()
  in
  (* Continuous workload: 60 operations over 120 time units. *)
  for k = 0 to 59 do
    let time = 2.0 *. float_of_int (k + 1) in
    let client = (k * 11) mod 15 in
    if k mod 4 = 0 then
      Engine.schedule engine ~time (fun () ->
          Reconfig.write rc ~client ~value:(500 + k))
    else Engine.schedule engine ~time (fun () -> Reconfig.read rc ~client)
  done;
  (* Grow at t = 30, 60, 90. *)
  List.iteri
    (fun i t ->
      Engine.schedule engine
        ~time:(30.0 *. float_of_int (i + 1))
        (fun () ->
          Reconfig.reconfigure rc ~coordinator:(i + 2)
            (Core.Htriang.system t)))
    [ t1; t2; t3 ];
  Engine.run engine;
  Printf.printf "\nafter the run:\n";
  Printf.printf "  epoch switches: %d (final epoch %d)\n"
    (Reconfig.epoch_switches rc) (Reconfig.current_epoch rc);
  Printf.printf "  reads %d, writes %d, retried %d, abandoned %d\n"
    (Reconfig.reads_ok rc) (Reconfig.writes_ok rc) (Reconfig.retries rc)
    (Reconfig.failed rc);
  Printf.printf "  stale reads across all switches: %d (must be 0)\n"
    (Reconfig.stale_reads rc)
