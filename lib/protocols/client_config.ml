module Durable = Sim.Durable

let rpc_timeout = 4.0

type fd = { period : float; timeout : float; accrual : float option }

type routing = { hedge : bool; degraded_reads : bool }

type t = {
  fd : fd;
  routing : routing;
  durability : Durable.config;
  timeout : float;
  retries : int;
}

let default =
  {
    fd = { period = 1.0; timeout = 5.0; accrual = None };
    routing = { hedge = false; degraded_reads = false };
    durability = Durable.instant;
    timeout = 25.0;
    retries = 2;
  }

let with_fd ?period ?timeout ?accrual t =
  {
    t with
    fd =
      {
        period = Option.value period ~default:t.fd.period;
        timeout = Option.value timeout ~default:t.fd.timeout;
        accrual =
          (match accrual with Some _ as a -> a | None -> t.fd.accrual);
      };
  }

let with_routing ?hedge ?degraded_reads t =
  {
    t with
    routing =
      {
        hedge = Option.value hedge ~default:t.routing.hedge;
        degraded_reads =
          Option.value degraded_reads ~default:t.routing.degraded_reads;
      };
  }

let with_durability durability t = { t with durability }
let with_timeout timeout t = { t with timeout }
let with_retries retries t = { t with retries }

let fd_mode t =
  match t.fd.accrual with
  | None -> Sim.Failure_detector.Fixed_timeout t.fd.timeout
  | Some threshold ->
      Sim.Failure_detector.Accrual { threshold; window = 20; min_samples = 5 }
