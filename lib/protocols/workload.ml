module Engine = Sim.Engine
module Rng = Quorum.Rng

let poisson_times rng ~rate ~horizon =
  let rec go t acc =
    let t = t +. Rng.exponential rng ~mean:(1.0 /. rate) in
    if t >= horizon then List.rev acc else go t (t :: acc)
  in
  go 0.0 []

let poisson_ops engine ~rng ~rate ~horizon issue =
  if rate <= 0.0 || horizon <= 0.0 then invalid_arg "Workload.poisson_ops";
  let times = poisson_times rng ~rate ~horizon in
  List.iter
    (fun time ->
      let client = Rng.int rng (Engine.nodes engine) in
      Engine.schedule engine ~time (fun () -> issue ~client))
    times;
  List.length times

let open_loop engine ~rng ~rate ~horizon issue =
  if rate <= 0.0 || horizon <= 0.0 then invalid_arg "Workload.open_loop";
  let times = poisson_times rng ~rate ~horizon in
  List.iter (fun time -> Engine.schedule engine ~time issue) times;
  List.length times

let closed_loop engine ~stations ~per_station ~horizon issue =
  if stations <= 0 || per_station <= 0 then
    invalid_arg "Workload.closed_loop: stations/per_station";
  if horizon <= 0.0 then invalid_arg "Workload.closed_loop: horizon";
  (* Each station keeps [per_station] ops in flight: a completed op
     immediately spawns its successor, a failed one backs off by one
     time unit (breaking the synchronous resubmit loop a persistent
     quorum outage would otherwise spin on). *)
  let rec pump ~station =
    if Engine.now engine < horizon then
      issue ~station ~complete:(fun ~ok ->
          if ok then pump ~station
          else
            Engine.schedule engine
              ~time:(Engine.now engine +. 1.0)
              (fun () -> pump ~station))
  in
  for s = 0 to stations - 1 do
    Engine.schedule engine ~time:0.0 (fun () ->
        for _ = 1 to per_station do
          pump ~station:s
        done)
  done

let staggered_requests engine ~every ~count issue =
  if every <= 0.0 || count < 0 then
    invalid_arg "Workload.staggered_requests";
  let n = Engine.nodes engine in
  for i = 0 to count - 1 do
    let client = i mod n in
    Engine.schedule engine
      ~time:(float_of_int i *. every)
      (fun () -> issue ~client)
  done

let read_write_mix engine ~rng ~rate ~horizon ~read_fraction ~keys ~read
    ~write =
  if read_fraction < 0.0 || read_fraction > 1.0 then
    invalid_arg "Workload.read_write_mix: read_fraction";
  if keys <= 0 then invalid_arg "Workload.read_write_mix: keys";
  let times = poisson_times rng ~rate ~horizon in
  let counter = ref 0 in
  List.iter
    (fun time ->
      let client = Rng.int rng (Engine.nodes engine) in
      let key = Rng.int rng keys in
      let is_read = Rng.bernoulli rng read_fraction in
      incr counter;
      let value = !counter in
      Engine.schedule engine ~time (fun () ->
          if is_read then read ~client ~key else write ~client ~key ~value))
    times;
  List.length times
