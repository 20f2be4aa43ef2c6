module Bitset = Quorum.Bitset
module System = Quorum.System
module Rng = Quorum.Rng

let check branching =
  if branching = [] then invalid_arg "Hqs: empty branching";
  List.iter (fun b -> if b < 1 then invalid_arg "Hqs: branching < 1") branching

let universe_size branching = List.fold_left ( * ) 1 branching
let majority b = (b / 2) + 1

let quorum_size ~branching =
  check branching;
  List.fold_left (fun acc b -> acc * majority b) 1 branching

(* [quorums_range]'s list length: a node takes each of the C(b, m)
   sets of m = majority b children, with any quorum of each. *)
let quorum_count ~branching =
  check branching;
  let node b children =
    let m = majority b in
    let acc = ref (Quorum.Failure_poly.binomial b m) in
    for _ = 1 to m do
      acc := !acc *. children
    done;
    !acc
  in
  List.fold_right node branching 1.0

let mask_mem mask i = mask land (1 lsl i) <> 0

(* Subtrees at the same level span contiguous leaf ranges; [offset] is
   the first leaf of the current subtree.  [mem live] is [Bitset.mem]
   or [mask_mem], top-level functions, so a check builds no closure. *)
let rec avail_range branching mem live offset =
  match branching with
  | [] -> mem live offset
  | b :: rest ->
      live_children rest mem live offset (universe_size rest) b 0 0
      >= majority b

(* How many of the children [i, b) of a node, [span] leaves each, hold
   a quorum, on top of [ok]. *)
and live_children rest mem live offset span b i ok =
  if i = b then ok
  else
    live_children rest mem live offset span b (i + 1)
      (if avail_range rest mem live (offset + (i * span)) then ok + 1 else ok)

let rec quorums_range branching n offset =
  match branching with
  | [] -> [ [ offset ] ]
  | b :: rest ->
      let child_span = universe_size rest in
      let child_quorums i = quorums_range rest n (offset + (i * child_span)) in
      Quorum.Combinat.ksubsets (List.init b (fun i -> i)) (majority b)
      |> List.concat_map (fun chosen ->
             List.map List.concat
               (Quorum.Combinat.product (List.map child_quorums chosen)))

let rec select_range branching rng live offset =
  match branching with
  | [] -> if Bitset.mem live offset then Some [ offset ] else None
  | b :: rest ->
      let child_span = universe_size rest in
      let children = Array.init b (fun i -> i) in
      Rng.shuffle_in_place rng children;
      let need = majority b in
      let rec gather i taken acc =
        if taken = need then Some acc
        else if i = Array.length children then None
        else
          match
            select_range rest rng live (offset + (children.(i) * child_span))
          with
          | Some q -> gather (i + 1) (taken + 1) (q @ acc)
          | None -> gather (i + 1) taken acc
      in
      gather 0 0 []

(* Exact availability counts: [failure_probability_hetero]'s
   recursion over count polynomials.  A node's children share no
   process and have one shape per level, so with (T, A) a child's
   total and available counts, [at_least]'s DP over the children runs
   on polynomials: dist.(k) counts the live sets of the children seen
   so far with exactly [k] of them available, each child moving a set
   up with A or keeping it with T - A.  A leaf is (1 + x, x).  A change
   to the float recursion changes this too. *)
let avail_counts ~branching =
  let open Quorum.Int_poly in
  let node b (total, avail) =
    let dead = sub total avail in
    let dist = Array.make (b + 1) [||] in
    dist.(0) <- one;
    for i = 0 to b - 1 do
      for k = i + 1 downto 1 do
        dist.(k) <- add (mul dist.(k) dead) (mul dist.(k - 1) avail)
      done;
      dist.(0) <- mul dist.(0) dead
    done;
    let at_least = ref [||] in
    for k = majority b to b do
      at_least := add !at_least dist.(k)
    done;
    (pow total b, !at_least)
  in
  let _, avail = List.fold_right node branching (binomial 1, monomial 1) in
  coeffs ~n:(universe_size branching) avail

let system ?name ~branching () =
  check branching;
  let n = universe_size branching in
  let name =
    match name with
    | Some s -> s
    | None ->
        Printf.sprintf "hqs(%s)"
          (String.concat "x" (List.map string_of_int branching))
  in
  let avail live = avail_range branching Bitset.mem live 0 in
  let avail_mask =
    if n <= Bitset.bits_per_word then
      Some (fun live -> avail_range branching mask_mem live 0)
    else None
  in
  let min_quorums =
    Thresh.capped ~name:"Hqs"
      (fun () -> quorum_count ~branching)
      (fun () -> List.map (Bitset.of_list n) (quorums_range branching n 0))
  in
  let select rng ~live =
    Option.map (Bitset.of_list n) (select_range branching rng live 0)
  in
  System.make ~name ~n ~avail ?avail_mask
    ~avail_counts:(fun () -> avail_counts ~branching)
    ~min_quorums ~select ()

let failure_probability_hetero ~branching ~p_of =
  check branching;
  (* P(at least [need] of the independent child events occur): DP over
     the children's individual probabilities. *)
  let at_least need probs =
    let dist = Array.make (List.length probs + 1) 0.0 in
    dist.(0) <- 1.0;
    List.iteri
      (fun i pr ->
        for k = i + 1 downto 1 do
          dist.(k) <- (dist.(k) *. (1.0 -. pr)) +. (dist.(k - 1) *. pr)
        done;
        dist.(0) <- dist.(0) *. (1.0 -. pr))
      probs;
    let acc = ref 0.0 in
    for k = need to Array.length dist - 1 do
      acc := !acc +. dist.(k)
    done;
    !acc
  in
  let rec survive branching offset =
    match branching with
    | [] -> 1.0 -. p_of offset
    | b :: rest ->
        let span = universe_size rest in
        let children =
          List.init b (fun i -> survive rest (offset + (i * span)))
        in
        at_least (majority b) children
  in
  1.0 -. survive branching 0

let failure_probability ~branching ~p =
  failure_probability_hetero ~branching ~p_of:(fun _ -> p)
