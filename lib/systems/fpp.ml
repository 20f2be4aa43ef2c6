module Bitset = Quorum.Bitset

let is_prime q =
  q >= 2
  &&
  let rec check d = d * d > q || (q mod d <> 0 && check (d + 1)) in
  check 2

let universe_size ~order = (order * order) + order + 1

(* Canonical projective points over GF(q): first non-zero coordinate
   normalized to 1, enumerated as (1,a,b), (0,1,a), (0,0,1). *)
let points q =
  let all = ref [] in
  for a = q - 1 downto 0 do
    for b = q - 1 downto 0 do
      all := (1, a, b) :: !all
    done
  done;
  let tail = List.init q (fun a -> (0, 1, a)) @ [ (0, 0, 1) ] in
  Array.of_list (!all @ tail)

let system ?name ~order () =
  let q = order in
  if not (is_prime q) then
    invalid_arg "Fpp.system: only prime orders are supported";
  let pts = points q in
  let n = Array.length pts in
  let name =
    match name with Some s -> s | None -> Printf.sprintf "fpp(%d)" n
  in
  let incident (x1, y1, z1) (x2, y2, z2) =
    ((x1 * x2) + (y1 * y2) + (z1 * z2)) mod q = 0
  in
  (* Lines are indexed by the same coordinates; line L contains point P
     iff their dot product vanishes. *)
  let lines =
    Array.to_list pts
    |> List.map (fun line ->
           let members =
             List.filter
               (fun i -> incident line pts.(i))
               (List.init n (fun i -> i))
           in
           Bitset.of_list n members)
  in
  List.iter
    (fun l ->
      if Bitset.cardinal l <> q + 1 then
        invalid_arg "Fpp.system: internal construction error")
    lines;
  Quorum.System.of_quorums ~name ~n lines
