module Durable = Sim.Durable

type rpc = { timeout : float; backoff : float; attempts : int }
type fd = { period : float; timeout : float; accrual : float option }

type routing = { hedge : bool; degraded_reads : bool }

type t = {
  rpc : rpc;
  fd : fd;
  routing : routing;
  durability : Durable.config;
  timeout : float;
  retries : int;
}

let default =
  {
    rpc = { timeout = 4.0; backoff = 1.6; attempts = 6 };
    fd = { period = 1.0; timeout = 5.0; accrual = None };
    routing = { hedge = false; degraded_reads = false };
    durability = Durable.instant;
    timeout = 25.0;
    retries = 2;
  }

let with_rpc ?timeout ?backoff ?attempts t =
  {
    t with
    rpc =
      {
        timeout = Option.value timeout ~default:t.rpc.timeout;
        backoff = Option.value backoff ~default:t.rpc.backoff;
        attempts = Option.value attempts ~default:t.rpc.attempts;
      };
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

let validate t =
  if t.rpc.timeout <= 0.0 then Error "Client_config: rpc timeout must be > 0"
  else if t.rpc.backoff < 1.0 then
    Error "Client_config: rpc backoff must be >= 1"
  else if t.rpc.attempts < 1 then
    Error "Client_config: rpc attempts must be >= 1"
  else if t.fd.period <= 0.0 then
    Error "Client_config: fd period must be > 0"
  else if t.fd.timeout <= t.fd.period then
    Error "Client_config: fd timeout must exceed its period"
  else if (match t.fd.accrual with Some x -> x <= 0.0 | None -> false) then
    Error "Client_config: fd accrual threshold must be > 0"
  else if t.timeout <= 0.0 then
    Error "Client_config: operation timeout must be > 0"
  else if t.retries < 0 then Error "Client_config: retries must be >= 0"
  else Ok ()
