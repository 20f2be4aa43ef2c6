(* Byzantine fault tolerance from crash-tolerant quorums — the
   adaptation the paper's related work anticipates ("we believe that
   the ideas proposed in this paper can also be adapted and used in
   Byzantine quorum systems").

   A replicated register runs over three quorum systems while two
   replicas lie (fabricated versions and values, coordinated):

   - plain majority: intersections of size 1 cannot outvote a liar —
     updates are lost (stale reads);
   - the masking threshold system (|Q inter Q'| >= 2f+1): safe;
   - the paper's h-triang boosted by the replicated-groups construction
     (one h-triang quorum in each of 2f+1 copies): safe, with the
     hierarchical load-balancing intact.

   Run with: dune exec examples/byzantine_demo.exe *)

module Engine = Sim.Engine
module Masking = Byzantine.Masking

let workload =
  [ `Write 101; `Read; `Write 202; `Read; `Read; `Write 303 ]
  @ List.init 30 (fun _ -> `Read)

let run ~label ~system ~f ~byzantine =
  let engine = Engine.create ~seed:23 ~nodes:system.Quorum.System.n () in
  let store =
    Protocols.Byz_store.create engine ~system ~f ~byzantine ~timeout:60.0
  in
  let correct =
    List.filter
      (fun i -> not (List.mem i byzantine))
      (List.init system.Quorum.System.n (fun i -> i))
  in
  List.iteri
    (fun k op ->
      let time = 4.0 *. float_of_int (k + 1) in
      let client = List.nth correct (k mod List.length correct) in
      match op with
      | `Write value ->
          Engine.schedule engine ~time (fun () ->
              Protocols.Byz_store.write store ~client ~value)
      | `Read ->
          Engine.schedule engine ~time (fun () ->
              Protocols.Byz_store.read store ~client))
    workload;
  Engine.run engine;
  Printf.printf "%-34s reads %2d  fabricated %2d  stale+inconclusive %2d\n"
    label
    (Protocols.Byz_store.reads_ok store)
    (Protocols.Byz_store.fabricated_reads store)
    (Protocols.Byz_store.stale_reads store
    + Protocols.Byz_store.inconclusive_reads store)

let () =
  Printf.printf
    "Byzantine register, f = 1 protocol threshold, TWO lying replicas\n\n";
  Printf.printf "(fabricated must stay 0; a safe system also keeps stale at 0\n";
  Printf.printf " when the liars stay within its tolerance)\n\n";
  (* One liar - within budget for the masking systems. *)
  Printf.printf "-- one Byzantine replica --\n";
  run ~label:"plain majority(9), f=1" ~system:(Systems.Majority.make 9) ~f:1
    ~byzantine:[ 0 ];
  run ~label:"masking(9, f=1)" ~system:(Masking.majority_masking ~n:9 ~f:1)
    ~f:1 ~byzantine:[ 0 ];
  let boosted =
    Masking.boost ~k:3
      (Core.Htriang.system (Core.Htriang.standard ~rows:4 ()))
  in
  run ~label:"boost(3, h-triang(10)), 30 nodes" ~system:boosted ~f:1
    ~byzantine:[ 0 ];
  Printf.printf "\n-- two Byzantine replicas (over budget for f = 1) --\n";
  run ~label:"masking(9, f=1) OVER BUDGET"
    ~system:(Masking.majority_masking ~n:9 ~f:1)
    ~f:1 ~byzantine:[ 2; 6 ];
  run ~label:"masking(13, f=2) still safe"
    ~system:(Masking.majority_masking ~n:13 ~f:2)
    ~f:2 ~byzantine:[ 2; 6 ]
