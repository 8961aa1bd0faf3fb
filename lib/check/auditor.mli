(** The runtime auditor: one object that owns a set of live invariant
    instances, feeds them every observed protocol event, and collects
    the resulting violations.

    Two modes share the same core:
    - {e live} — {!attach} the auditor to a simulation's trace bus; it
      sees every event (including [Debug] ones, below the sink's
      severity filter) and re-emits each violation onto the bus as a
      {!Lockss.Trace.Invariant_violated} event so sinks record it.
    - {e offline} — replay a trace file through {!feed_record} (each
      record as [Lockss.Trace.iter_file] decodes it) and call {!finish}
      at end of file.

    Feeding is re-entrancy safe: [Invariant_violated] events are
    ignored on input, so the live re-emission cannot loop. *)

type t

(** [create ?params ?only ()] instantiates every registry invariant
    that is enabled under [params], optionally restricted to the ids in
    [only]. *)
val create : ?params:Invariant.params -> ?only:string list -> unit -> t

val params : t -> Invariant.params

(** Feed one event, in stream order. Also forwards the event to an
    internal {!Ledger} so {!finish} can reconcile it with the metrics. *)
val feed : t -> time:float -> Lockss.Trace.event -> unit

(** [feed_record t ~line r] feeds record number [line] of a trace file.
    A record that did not decode ([Error msg]) is itself one violation
    of invariant ["trace-format"], and auditing goes on with the next
    record. *)
val feed_record :
  t -> line:int -> (float * Lockss.Trace.event, string) result -> unit

(** Run every invariant's end-of-stream check. Pass the run's metrics
    [summary] when available (live runs) to enable the conservation
    invariant; offline audits omit it. Idempotent. *)
val finish : ?metrics:Lockss.Metrics.summary -> t -> unit

(** Subscribe to a trace bus: every event is fed, and every violation
    is re-emitted as an {!Lockss.Trace.Invariant_violated} event. *)
val attach : t -> Lockss.Trace.t -> unit

(** Violations observed so far, oldest first. *)
val violations : t -> Invariant.violation list

val violation_count : t -> int

(** Machine-readable report:
    [{"violations": n; "checked": [ids]; "detail": [...]}]. *)
val report_json : t -> Obs.Json.t

(** Human-readable report; the last line is always
    ["violations: <n>"], greppable by smoke tests. *)
val pp_report : Format.formatter -> t -> unit
