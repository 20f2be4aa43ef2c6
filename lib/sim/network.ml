type cut = int

type t = {
  base_latency : float;
  jitter : float;
  loss : float;
  latency_of : int -> int -> float;
  mutable extra_loss : float;  (** transient additional loss (bursts) *)
  mutable cuts : (cut * (int -> bool)) list;  (** side-of-cut predicates *)
  mutable next_cut : cut;
  link_loss : (int * int, float) Hashtbl.t;  (** directed extra loss *)
  slowdown : (int, float) Hashtbl.t;  (** per-node added latency (gray) *)
}

let create ?(base_latency = 1.0) ?(jitter = 0.2) ?(loss = 0.0)
    ?(latency_of = fun _ _ -> 0.0) () =
  if base_latency < 0.0 || jitter < 0.0 then invalid_arg "Network.create";
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Network.create: loss";
  {
    base_latency;
    jitter;
    loss;
    latency_of;
    extra_loss = 0.0;
    cuts = [];
    next_cut = 0;
    link_loss = Hashtbl.create 16;
    slowdown = Hashtbl.create 16;
  }

let partition t ~group_a =
  let side i = List.mem i group_a in
  let id = t.next_cut in
  t.next_cut <- t.next_cut + 1;
  t.cuts <- (id, side) :: t.cuts;
  id

let heal t cut = t.cuts <- List.filter (fun (id, _) -> id <> cut) t.cuts
let heal_all t = t.cuts <- []
let partitioned t = t.cuts <> []

let set_extra_loss t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Network.set_extra_loss";
  t.extra_loss <- p

let extra_loss t = t.extra_loss

let set_link_loss t ~src ~dst p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_link_loss";
  if p = 0.0 then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) p

(* Calm networks skip the lookups (and the key tuple they allocate). *)
let link_loss t ~src ~dst =
  if Hashtbl.length t.link_loss = 0 then 0.0
  else
    match Hashtbl.find_opt t.link_loss (src, dst) with
    | Some p -> p
    | None -> 0.0

let set_slowdown t ~node extra =
  if extra < 0.0 then invalid_arg "Network.set_slowdown";
  if extra = 0.0 then Hashtbl.remove t.slowdown node
  else Hashtbl.replace t.slowdown node extra

let slowdown t ~node =
  if Hashtbl.length t.slowdown = 0 then 0.0
  else match Hashtbl.find_opt t.slowdown node with Some s -> s | None -> 0.0

(* Whether any cut separates [src] and [dst]; a loop rather than
   [List.exists] so no closure is built per message. *)
let rec crosses src dst = function
  | [] -> false
  | (_, side) :: cuts -> side src <> side dst || crosses src dst cuts

(* [Rng.float], computed here so no boxed float crosses the module
   boundary. *)
let[@inline] uniform rng = float_of_int (Quorum.Rng.bits53 rng) *. 0x1.0p-53

let draw t rng ~src ~dst latency =
  if crosses src dst t.cuts then false
  else begin
    (* Independent drop causes compose into one Bernoulli draw; no RNG
       is consumed when the message cannot be dropped, so loss-free
       runs keep the exact event streams of older seeds. *)
    let keep =
      (1.0 -. t.loss) *. (1.0 -. t.extra_loss)
      *. (1.0 -. link_loss t ~src ~dst)
    in
    if keep < 1.0 && uniform rng < 1.0 -. keep then false
    else begin
      (* [Rng.exponential ~mean:t.jitter], inlined. *)
      let jitter =
        if t.jitter = 0.0 then 0.0 else -.t.jitter *. log (1.0 -. uniform rng)
      in
      Float.Array.set latency 0
        (t.base_latency +. t.latency_of src dst +. jitter
        +. slowdown t ~node:src +. slowdown t ~node:dst);
      true
    end
  end
