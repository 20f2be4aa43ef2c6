(** One definition per experiment: the values [bench] and [quorumctl]
    must agree on, and the one run per protocol both of them call.
    Each pin is written once, here; the bench targets and the CLI's
    flag defaults both read it, so a default [quorumctl] invocation
    prints the bench's rows, and a row is replayed exactly by re-running
    its cell with the same seed and scenario. *)

type protocol = Mutex | Store | Reconfig | Throughput

val protocols : protocol list
val protocol_name : protocol -> string

(** {1 Chaos pins}

    Seeds mutex 41, store 42, reconfig 43 (echoed into
    BENCH_chaos.json) and throughput 46 (BENCH_throughput.json's).  The
    horizon is 400, 150 under [--fast].  The scenario set is
    {!Chaos.standard} [@] {!Chaos.recovery} [@] {!Chaos.churn}, 11
    scenarios.  Store cells read 70% of the time. *)

val seed : protocol -> int
val chaos_horizon : fast:bool -> float
val chaos_scenarios : n:int -> horizon:float -> Chaos.scenario list
val store_read_fraction : float

(** {1 Churn pins}

    Seed 45; a universe of 30 processes whose register starts as a
    5-row h-triang (half the universe spare); mean downtime 130; 2 ops
    per time unit, each timing out after 30; controller period 8;
    timed-mode lease 3; horizon 300, 150 under [--fast]. *)

val churn_seed : int
val churn_universe : int
val churn_rows : int
val churn_downtime : float
val churn_op_rate : float
val churn_op_timeout : float
val churn_period : float
val churn_lease : float
val churn_horizon : fast:bool -> float

val churn_scenario :
  downtime:float -> horizon:float -> float -> Chaos.scenario
(** [churn_scenario ~downtime ~horizon rate]: sustained Poisson churn at
    [rate] leave events per time unit with mean [downtime], on 2%
    message loss, labelled [rate=R] (two decimals). *)

(** {1 fd pins}

    Seed 47; horizon 300, 120 under [--fast]; the fixed detector
    timeout 5, also the accrual detector's warm-up fallback. *)

val fd_seed : int
val fd_horizon : fast:bool -> float
val fd_timeout : float

(** {1 Throughput pins}

    Horizon 200, 80 under [--fast]; sessions keep a window of 6 ops in
    flight and batch 4 requests, flushing a partial batch after 0.25;
    the scenario's fsync latency is 0.2.  The open-loop runs offer 12
    ops per time unit to n = 15; a session's backlog holds 64 ops. *)

val throughput_horizon : fast:bool -> float
val window : int
val batch : int
val batch_delay : float
val fsync : float
val open_n : int
val open_rate : float
val open_queue : int

val throughput_scenario : horizon:float -> string -> Chaos.scenario
(** The calm network with {!fsync}, labelled as given: by mode
    ([closed] / [open]) or [batch=N]. *)

(** {1 One run per protocol} *)

type cell =
  | Mutex_cell of Quorum.System.t
  | Store_cell of {
      read_system : Quorum.System.t;
      write_system : Quorum.System.t;
      name : string;
      read_fraction : float;
    }
  | Reconfig_cell of {
      initial : Quorum.System.t;
      next : Quorum.System.t;
      name : string;
    }
  | Throughput_cell of {
      arm : Throughput.arm;
      mode : Throughput.mode;
      window : int;
      batch : int;
    }
(** One run, minus its seed and scenario.  Systems carry lazy quorum
    lists, which two domains must not force at once, so a pooled sweep
    builds each cell inside its own task. *)

val cell :
  ?next:Quorum.System.t -> ?read_fraction:float -> protocol ->
  Quorum.System.t -> cell
(** The protocol's cell on one system, named after it.  [next]
    (reconfig only) defaults to the system itself, [read_fraction]
    (store only) to {!store_read_fraction}; a throughput cell is one
    closed-loop arm with {!window} and {!batch}. *)

val universe : cell -> int
(** The process count of the cell's engine: the n to build its
    scenarios for. *)

val name : cell -> string
(** The system label of the cell's rows. *)

type report =
  | Mutex_report of Chaos.mutex_report
  | Store_report of Chaos.store_report
  | Reconfig_report of Chaos.reconfig_report
  | Throughput_report of Throughput.report

type outcome = {
  report : report;
  history : Obs.Trace_analysis.hop list option;
      (** for {!Obs.Trace_analysis.audit_history}; [None] for the mutex *)
}

val run : ?seed:int -> ?obs:Obs.t -> cell -> Chaos.scenario -> outcome
(** One seeded run of the cell under the scenario.  [seed] defaults to
    the protocol's {!seed}; [obs] keeps the run's recording.  A
    throughput cell runs with {!batch_delay} and {!open_queue}. *)

val header : protocol -> string
val row : report -> string
(** The fixed-width table header and row that [bench] and [quorumctl]
    print. *)

val json : report -> string
(** The report as one BENCH_*.json object. *)

val verdict : report -> string option
(** [None] when the run kept its safety property (no mutex violation,
    no stale read), else the one-line reason.  The bench raises it; the
    CLI prints it as an [error:] line after its rows and exits 1. *)

val churn_verdict : Chaos.churn_report -> string option
val fd_verdict : Chaos.fd_report -> string option
(** {!verdict} for {!Chaos.run_churn_h} and {!Chaos.run_fd} runs. *)
