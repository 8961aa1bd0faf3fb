(** Pinned golden result baselines: the experiment-observability layer.

    This module watches the simulator's {e results}; perfbench/ measures
    what running it costs. A baseline is a per-experiment JSON document
    capturing the configuration fingerprint the sweep ran under and
    every result metric — the paper's headline measures (access-failure
    probability, delay ratio, coefficient of friction, cost ratio) plus
    each figure's series points — with a per-metric direction and drift
    tolerance. [pin-baseline] writes these documents into [baselines/];
    [diff-baseline] re-runs the sweep and compares.

    The comparison is {e two-sided}: the simulator is deterministic for
    pinned seeds, so any movement past tolerance — better or worse — is
    drift that must be explained and re-pinned deliberately. The
    direction does not gate; it labels each drifted metric as an
    improvement or a regression so the delta report is actionable. NaN
    is a legal pinned value (e.g. the empirical read-failure rate of a
    run with no reads) and compares equal only to NaN; infinities
    compare equal only to themselves. *)

(** Which movement is {e bad} for a metric — purely a reporting label.
    [Neutral] marks metrics with no bad direction (counts, horizons). *)
type direction = Higher_is_worse | Lower_is_worse | Neutral

type metric = {
  name : string;  (** stable dotted/bracketed key, unique per baseline *)
  value : float;
  direction : direction;
  tolerance_pct : float;
      (** relative drift allowance, percent of the pinned |value|; 0
          demands exact equality (a pinned 0 always does) *)
}

type t = {
  experiment : string;  (** target name: [fig2]..[fig8], [table1] *)
  config : (string * Json.t) list;
      (** scale fingerprint the sweep ran under; compared structurally,
          a mismatch fails the diff before any metric is compared *)
  provenance : (string * Json.t) list;
      (** how the pin was made (git describe, tool version, manifest);
          informational — never compared *)
  metrics : metric list;
}

(** [metric ?direction ?tolerance_pct name value] — direction defaults
    to [Neutral], tolerance to {!default_tolerance_pct}. *)
val metric : ?direction:direction -> ?tolerance_pct:float -> string -> float -> metric

(** 0.01% — far above float round-trip noise (the JSON writer is
    round-trip exact), far below any real result shift. *)
val default_tolerance_pct : float

val make :
  experiment:string ->
  config:(string * Json.t) list ->
  ?provenance:(string * Json.t) list ->
  metric list ->
  t

val to_json : t -> Json.t

(** Rejects documents whose schema tag is missing or unknown, and
    duplicate metric names. *)
val of_json : Json.t -> (t, string) result

(** {2 Comparison} *)

type verdict =
  | Within  (** inside tolerance (or exactly equal) *)
  | Drift_worse  (** past tolerance, moving in the metric's bad direction *)
  | Drift_better  (** past tolerance, moving in the good direction *)
  | Drift  (** past tolerance on a [Neutral] metric *)

type delta = {
  name : string;
  pinned : float;
  current : float;
  delta : float;  (** [current -. pinned]; [nan] when either is NaN *)
  change_pct : float;  (** [nan] when the pinned value is 0 or not finite *)
  tolerance_pct : float;
  metric_direction : direction;
  verdict : verdict;
}

type report = {
  experiment : string;
  deltas : delta list;  (** every pinned metric found in the current run *)
  missing : string list;  (** pinned, but the current run did not produce it *)
  added : string list;  (** produced now, but not pinned *)
  config_mismatch : (string * Json.t option * Json.t option) list;
      (** fingerprint fields that differ: (key, pinned, current) *)
}

(** [compare ~baseline ~current] matches metrics by name. [current] is
    typically a freshly captured (unpinned) baseline of the same
    experiment; its own tolerances and directions are ignored — the pin
    is authoritative. *)
val compare : baseline:t -> current:t -> report

val drifted : report -> delta list

(** No drifted metric, nothing missing or added, fingerprints agree. *)
val ok : report -> bool

val report_json : report -> Json.t

(** Actionable per-metric table: name, pinned value, current value,
    delta, tolerance and verdict, then missing/added/config failures,
    ending with a [verdict:] line. *)
val pp_report : Format.formatter -> report -> unit

(** {2 Files} *)

(** [path ~dir experiment] is [dir/experiment.baseline.json]. *)
val path : dir:string -> string -> string

(** [save ~dir t] pretty-prints the document (stable key order,
    one metric per line — git-diffable) and writes it atomically. *)
val save : dir:string -> t -> unit

(** [load path] reads and validates a pinned baseline. *)
val load : string -> (t, string) result
