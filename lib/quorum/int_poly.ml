type t = int array

let one = [| 1 |]
let monomial k = Array.init (k + 1) (fun i -> if i = k then 1 else 0)

let binomial m =
  let row = Array.make (m + 1) 0 in
  row.(0) <- 1;
  (* Pascal's rule in place, right to left. *)
  for i = 1 to m do
    for k = i downto 1 do
      row.(k) <- row.(k) + row.(k - 1)
    done
  done;
  row

let coeff a k = if k < Array.length a then a.(k) else 0

let add a b =
  Array.init (max (Array.length a) (Array.length b)) (fun k ->
      coeff a k + coeff b k)

let sub a b =
  Array.init (max (Array.length a) (Array.length b)) (fun k ->
      coeff a k - coeff b k)

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let c = Array.make (la + lb - 1) 0 in
    for i = 0 to la - 1 do
      if a.(i) <> 0 then
        for j = 0 to lb - 1 do
          c.(i + j) <- c.(i + j) + (a.(i) * b.(j))
        done
    done;
    c
  end

let rec pow a k =
  if k < 0 then invalid_arg "Int_poly.pow: negative exponent"
  else if k = 0 then one
  else mul a (pow a (k - 1))

let coeffs ~n a =
  for k = n + 1 to Array.length a - 1 do
    if a.(k) <> 0 then invalid_arg "Int_poly.coeffs: degree exceeds n"
  done;
  Array.init (n + 1) (coeff a)
