(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64]
   record field would box a fresh [Int64] on every step. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 constants. *)
let gamma = 0x9E3779B97F4A7C15L
let mix_mul1 = 0xBF58476D1CE4E5B9L
let mix_mul2 = 0x94D049BB133111EBL

let of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) mix_mul1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) mix_mul2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let s = Int64.add (get64u t 0) gamma in
  set64u t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

(* Each step adds [gamma], so [k] steps add [k * gamma] (mod 2^64). *)
let advance t k =
  if k < 0 then invalid_arg "Rng.advance: negative step count";
  set64u t 0 (Int64.add (get64u t 0) (Int64.mul (Int64.of_int k) gamma))

(* Top 62 bits as a non-negative OCaml int. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* Rejection sampling to avoid modulo bias; top level, so a draw
   builds no closure. *)
let rec int_below t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound

(* 53 random bits scaled to [0,1). *)
let[@inline] float t = float_of_int (bits53 t) *. 0x1.0p-53

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t < p

let exponential t ~mean =
  (* Inverse CDF; 1 - float is in (0,1] so log is finite. *)
  -.mean *. log (1.0 -. float t)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_weighted t ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: weights sum to zero";
  let target = float t *. total in
  let n = Array.length weights in
  let rec loop i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else loop (i + 1) acc
  in
  loop 0 0.0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
