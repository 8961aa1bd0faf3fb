(** Offline (and live) trace analysis: poll spans, per-peer effort
    ledger, per-phase latency distributions and anomaly detection, from
    a stream of typed trace events ({!Lockss.Trace.event}).

    Feed events one of two ways:
    - {!feed} — how the live builders attach: it is a trace sink, so
      subscribe it to the trace bus;
    - {!feed_record} with each record of a trace file, as
      [Lockss.Trace.iter_file] decodes it: an event, or the decode error
      (which becomes an anomaly, never an exception).

    The report distinguishes {e anomalies} (shapes a healthy fault-free
    run never produces — the fault-free smoke asserts there are none)
    from {e informational} observations (open spans at end of trace,
    voter-side events crossing a conclusion in flight). *)

type t

val create : unit -> t
val span_builder : t -> Span.t
val ledger : t -> Ledger.t

(** [feed t ~time e] routes one trace event to the span builder and the
    ledger. *)
val feed : t -> time:float -> Lockss.Trace.event -> unit

(** [feed_record t ~line r] consumes record number [line] of a trace
    file: [Ok (time, e)] is fed, [Error msg] (a record that does not parse or
    does not decode into an event) is recorded as a
    {!Span.Malformed_line} anomaly. Either way it counts towards
    {!lines}. *)
val feed_record : t -> line:int -> (float * Lockss.Trace.event, string) result -> unit

(** Records delivered through {!feed_record}: lines (JSONL) or records
    (binary) of a trace file; 0 when fed live. *)
val lines : t -> int

val anomalies : t -> Span.anomaly list
val anomaly_count : t -> int

(** {2 Latency distributions} *)

type dist = {
  label : string;
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  max : float;
}

(** [phase_latencies t] summarises, over all spans that reached the
    phase: solicitation (start to evaluation), evaluation (to first
    repair or conclusion), repair (to conclusion), first_vote (start to
    first vote) and total (start to conclusion). *)
val phase_latencies : t -> dist list

(** [duration_histogram t] buckets total poll durations into
    human-scale ranges ([<1h] … [>=30d]); returns [(label, count)]. *)
val duration_histogram : t -> (string * int) list

(** {2 Reports} *)

val report_json : t -> Obs.Json.t
val pp_report : Format.formatter -> t -> unit
