(** JSONL / CSV serialization of metric snapshots and trace buffers.

    JSONL: one self-describing JSON object per line — greppable,
    streamable, trivially loadable from pandas/jq.  CSV: one flat
    header plus one row per cell/event.  Both are written in the
    deterministic order of {!Metrics.snapshot} / {!Trace.iter}, so
    dumps from the same seed are byte-identical. *)

val metrics_jsonl : out_channel -> Metrics.t -> unit
val metrics_csv : out_channel -> Metrics.t -> unit

val metrics_prometheus : out_channel -> Metrics.t -> unit
(** Prometheus text exposition (format 0.0.4): [# HELP]/[# TYPE] block
    per family, counters suffixed [_total], histograms exposed as
    summaries (pre-computed [quantile] series plus [_sum]/[_count]).
    Metric and label names have non-identifier characters mapped to
    ['_'] (["rpc.retransmits"] becomes [rpc_retransmits_total]). *)

val trace_jsonl : out_channel -> Trace.t -> unit
val trace_csv : out_channel -> Trace.t -> unit

val with_file : string -> (out_channel -> unit) -> unit
(** Open [path] for writing, run the sink, close (also on raise). *)
