let make n =
  if n <= 0 then invalid_arg "Singleton.make: n must be positive";
  let s =
    Quorum.System.of_quorums
      ~name:(Printf.sprintf "singleton(%d)" n)
      ~n
      [ Quorum.Bitset.of_list n [ 0 ] ]
  in
  (* Available exactly when process 0 is live: x (1+x)^(n-1). *)
  let avail_counts () =
    let open Quorum.Int_poly in
    coeffs ~n (mul (monomial 1) (binomial (n - 1)))
  in
  { s with Quorum.System.avail_counts = Some avail_counts }
