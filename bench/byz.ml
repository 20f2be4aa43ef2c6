(* Byzantine extension benchmark: the cost of lifting the paper's
   constructions to Byzantine fault tolerance, and end-to-end register
   safety under coordinated liars. *)

module Masking = Byzantine.Masking
module Engine = Sim.Engine

let crash_fp system p =
  if system.Quorum.System.n <= 26 then Analysis.Failure.exact system ~p
  else
    (Analysis.Failure.monte_carlo ~trials:400_000 (Quorum.Rng.create 3)
       system ~p)
      .mean

let structural () =
  Util.print_header
    "Byzantine lift (extension): cost of masking f faults";
  Printf.printf "  %-26s %-4s %-8s %-10s %-12s %s\n" "system" "n" "|Q|"
    "intersect" "F(0.1)" "F(0.2)";
  let entry label system quorum_size intersect =
    Printf.printf "  %-26s %-4d %-8s %-10d %-12.6f %.6f\n" label
      system.Quorum.System.n quorum_size intersect (crash_fp system 0.1)
      (crash_fp system 0.2)
  in
  (* Crash-only baselines. *)
  entry "h-triang(15)  [f=0]"
    (Core.Htriang.system (Core.Htriang.standard ~rows:5 ()))
    "5" 1;
  entry "majority(15)  [f=0]" (Systems.Majority.make 15) "8" 1;
  (* f = 1. *)
  entry "masking(15,f=1)" (Masking.majority_masking ~n:15 ~f:1) "9" 3;
  entry "boost(3,h-triang(15))"
    (Masking.boost ~k:3
       (Core.Htriang.system (Core.Htriang.standard ~rows:5 ())))
    "15" 3;
  (* f = 2. *)
  entry "masking(15,f=2)" (Masking.majority_masking ~n:15 ~f:2) "10" 5;
  entry "boost(5,h-triang(10))"
    (Masking.boost ~k:5
       (Core.Htriang.system (Core.Htriang.standard ~rows:4 ())))
    "20" 5;
  Printf.printf
    "  (boost trades universe size for structure: quorums stay (2f+1)\n\
    \   copies of the base's sqrt(2n') quorums and keep its load\n\
    \   balancing; the threshold construction stays compact but its\n\
    \   quorums grow toward 2n/3.)\n"

let register_runs () =
  Util.print_header
    "Byzantine register: 38 operations, one coordinated liar (f = 1)";
  Printf.printf "  %-26s %-8s %-12s %s\n" "system" "ops ok" "fabricated"
    "stale+inconclusive";
  let workload =
    [ `Write 1; `Read; `Write 2; `Read; `Read; `Write 3 ]
    @ List.init 32 (fun _ -> `Read)
  in
  List.iter
    (fun (label, system) ->
      let engine = Engine.create ~seed:19 ~nodes:system.Quorum.System.n () in
      let store =
        Protocols.Byz_store.create engine ~system ~f:1 ~byzantine:[ 1 ]
          ~timeout:60.0
      in
      List.iteri
        (fun k op ->
          let time = 4.0 *. float_of_int (k + 1) in
          let client = 2 + (k mod (system.Quorum.System.n - 2)) in
          match op with
          | `Write value ->
              Engine.schedule engine ~time (fun () ->
                  Protocols.Byz_store.write store ~client ~value)
          | `Read ->
              Engine.schedule engine ~time (fun () ->
                  Protocols.Byz_store.read store ~client))
        workload;
      Engine.run engine;
      Printf.printf "  %-26s %-8d %-12d %d\n" label
        (Protocols.Byz_store.reads_ok store
        + Protocols.Byz_store.writes_ok store)
        (Protocols.Byz_store.fabricated_reads store)
        (Protocols.Byz_store.stale_reads store
        + Protocols.Byz_store.inconclusive_reads store))
    [
      ("plain majority(9)  [weak]", Systems.Majority.make 9);
      ("masking(9,f=1)", Masking.majority_masking ~n:9 ~f:1);
      ( "boost(3,h-triang(10))",
        Masking.boost ~k:3
          (Core.Htriang.system (Core.Htriang.standard ~rows:4 ())) );
    ]

let run () =
  structural ();
  register_runs ()
