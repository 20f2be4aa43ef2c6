(* The monotone subcube walk against the one-set-at-a-time scans it
   replaced, kept here verbatim as oracles: the exact failure
   polynomial ([Failure.exact_poly]) and the minimal-quorum
   enumeration ([Coterie.minimal_of_avail]).  The walk is only right
   for monotone predicates, so every catalogue [avail_mask] is checked
   to be monotone too. *)

module Bitset = Quorum.Bitset
module System = Quorum.System
module Coterie = Quorum.Coterie
module Failure_poly = Quorum.Failure_poly
module Rng = Quorum.Rng
module Registry = Core.Registry

(* --- Oracles: the scans before the walk ----------------------------- *)

let count_fails ~n avail ~lo ~hi =
  let counts = Array.make (n + 1) 0.0 in
  for live = lo to hi - 1 do
    if not (avail live) then begin
      let k = Bitset.popcount live in
      counts.(k) <- counts.(k) +. 1.0
    end
  done;
  counts

let rec minimal avail_mask n mask b =
  if b = n then true
  else if mask land (1 lsl b) <> 0 && avail_mask (mask lxor (1 lsl b)) then
    false
  else minimal avail_mask n mask (b + 1)

let old_minimal_of_avail ~n avail_mask =
  let result = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    if avail_mask mask && minimal avail_mask n mask 0 then
      result := Bitset.of_mask ~n mask :: !result
  done;
  List.rev !result

(* --- Systems -------------------------------------------------------- *)

let instantiations ~upto =
  List.concat_map
    (fun n -> List.concat_map snd (Registry.instantiations ~n))
    (List.init upto (fun i -> i + 1))

let pools =
  lazy (List.map (fun jobs -> Exec.Pool.create ~jobs ()) [ 1; 2; 4 ])

(* Random weighted voting, zero votes included. *)
let voting_arb ~max_n =
  QCheck.(array_of_size Gen.(int_range 1 max_n) (int_range 0 4))

let voting votes =
  QCheck.assume (Array.exists (fun v -> v > 0) votes);
  Systems.Weighted_voting.system ~votes ()

(* Random explicit systems over [n] processes: [k] random quorums of
   density [d] / 8.  [k = 0] never is available; density 0 gives the
   empty quorum, always available. *)
let quorums_arb ~max_n =
  QCheck.(
    quad (int_range 1 max_n) (int_range 0 6) (int_range 0 8) (int_bound 10_000))

let of_quorums (n, k, d, seed) =
  let rng = Rng.create seed in
  let p = float_of_int d /. 8.0 in
  System.of_quorums ~name:"random" ~n
    (List.init k (fun _ -> Bitset.random_subset rng ~n ~p))

(* --- Exact failure polynomial -------------------------------------- *)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [exact_poly] sequential and on pools of 1, 2 and 4 domains, bit for
   bit against the old loop. *)
let exact_matches (s : System.t) =
  let n = s.System.n in
  let oracle = count_fails ~n (System.avail_mask_exn s) ~lo:0 ~hi:(1 lsl n) in
  let agrees poly =
    Failure_poly.n poly = n
    && List.for_all
         (fun k -> same_float (Failure_poly.fail_count poly k) oracle.(k))
         (List.init (n + 1) Fun.id)
  in
  agrees (Analysis.Failure.exact_poly s)
  && List.for_all
       (fun pool -> agrees (Analysis.Failure.exact_poly ~pool s))
       (Lazy.force pools)

let test_exact_catalogue () =
  List.iter
    (fun spec ->
      if not (exact_matches (Registry.build_exn spec)) then
        Alcotest.failf "%s: exact_poly differs from the set-by-set scan" spec)
    (instantiations ~upto:16)

let exact_voting =
  QCheck.Test.make ~count:200 ~name:"exact_poly = scan: weighted voting"
    (voting_arb ~max_n:18) (fun votes -> exact_matches (voting votes))

let exact_of_quorums =
  QCheck.Test.make ~count:300 ~name:"exact_poly = scan: of_quorums"
    (quorums_arb ~max_n:17) (fun q -> exact_matches (of_quorums q))

(* --- Minimal quorums ------------------------------------------------ *)

let same_list a b =
  List.length a = List.length b && List.for_all2 Bitset.equal a b

let minimal_matches ~n avail_mask =
  same_list
    (Coterie.minimal_of_avail ~n avail_mask)
    (old_minimal_of_avail ~n avail_mask)

let test_minimal_catalogue () =
  List.iter
    (fun spec ->
      let s = Registry.build_exn spec in
      if not (minimal_matches ~n:s.System.n (System.avail_mask_exn s)) then
        Alcotest.failf "%s: minimal_of_avail differs from the old scan" spec)
    (instantiations ~upto:14)

let minimal_voting =
  QCheck.Test.make ~count:200 ~name:"minimal_of_avail = scan: voting"
    (voting_arb ~max_n:14) (fun votes ->
      let s = voting votes in
      minimal_matches ~n:s.System.n (Option.get s.System.avail_mask))

let minimal_of_quorums =
  QCheck.Test.make ~count:300 ~name:"minimal_of_avail = scan: of_quorums"
    (quorums_arb ~max_n:14) (fun q ->
      let s = of_quorums q in
      minimal_matches ~n:s.System.n (Option.get s.System.avail_mask))

(* --- Monotonicity --------------------------------------------------- *)

(* Adding a live process never makes an available set unavailable. *)
let monotone ~n avail =
  let ok = ref true in
  for live = 0 to (1 lsl n) - 1 do
    if avail live then
      for b = 0 to n - 1 do
        if live land (1 lsl b) = 0 && not (avail (live lor (1 lsl b))) then
          ok := false
      done
  done;
  !ok

let test_monotone () =
  List.iter
    (fun spec ->
      let s = Registry.build_exn spec in
      if not (monotone ~n:s.System.n (System.avail_mask_exn s)) then
        Alcotest.failf "%s: avail_mask is not monotone" spec)
    (instantiations ~upto:12)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "scan"
    [
      ( "exact",
        Alcotest.test_case "catalogue n <= 16 = scan" `Quick
          test_exact_catalogue
        :: List.map qc [ exact_voting; exact_of_quorums ] );
      ( "minimal",
        Alcotest.test_case "catalogue n <= 14 = scan" `Quick
          test_minimal_catalogue
        :: List.map qc [ minimal_voting; minimal_of_quorums ] );
      ( "monotone",
        [ Alcotest.test_case "catalogue n <= 12" `Quick test_monotone ] );
    ]
