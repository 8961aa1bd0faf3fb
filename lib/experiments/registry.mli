(** The paper's evaluation, declared once: every experiment in
    reproduce order — [fig2] … [fig8], [table1], then [ablate],
    [subversion], [reciprocity], [extensions] and [fault-ablation].

    Each entry names its title, the paper's reference values, the report
    it renders (tables plus any reference lines), its gnuplot writer
    for figures, and the metrics it pins for the figures and table the
    golden baselines under [baselines/] hold. [reproduce],
    [pin-baseline], [diff-baseline], the five experiment subcommands and
    the bench report are lookups in {!all} or loops over it.

    Sweeps are shared: fig3/4/5 read the same pipe-stoppage sweep and
    fig6/7/8 the same admission-flood sweep, forced at most once per
    {!type-sweeps} value — capturing every pinned entry costs four
    sweeps, not eight. *)

(** Shared lazy sweep results at one scale. *)
type sweeps

val sweeps : Scenario.scale -> sweeps

(** A report, in print order. *)
type block =
  | Table of Repro_prelude.Table.t
  | Line of string

(** [print report] writes every table and line to stdout. *)
val print : block list -> unit

(** A pinned-metric constructor: {!Obs.Baseline.metric} with the
    capture's tolerance applied. *)
type pin = direction:Obs.Baseline.direction -> string -> float -> Obs.Baseline.metric

type entry = {
  name : string;
  title : string;
  notes : string list;  (** the paper's reference values and the expected shape *)
  report : sweeps -> block list;
  plot : (dir:string -> sweeps -> unit) option;
      (** writes [NAME.dat] and [NAME.gp] for every figure that reads
          this entry's sweep; render with [gnuplot NAME.gp] *)
  pins : (pin -> sweeps -> Obs.Baseline.metric list) option;
}

(** Every experiment, in reproduce order. *)
val all : entry list

(** The entries with pins — [reproduce], [pin-baseline] and
    [diff-baseline] targets, one [baselines/NAME.baseline.json] each —
    and the rest, each its own [lockss_sim] subcommand. *)
val pinned : entry list

val unpinned : entry list

(** [find entries name] is the entry called [name], or an error naming
    the known ones. *)
val find : entry list -> string -> (entry, string) result

(** The fingerprint {!capture} embeds: every {!Scenario.scale} field as
    a JSON value. A diff against a pin made at a different scale fails
    on the fingerprint before any metric is compared. *)
val config_fingerprint : Scenario.scale -> (string * Obs.Json.t) list

(** [capture ?tolerance_pct sweeps name] runs (or reuses) the pinned
    entry's sweep and captures its baseline document, fingerprinted with
    the scale [sweeps] runs at. [tolerance_pct] overrides the per-metric
    drift allowance (default {!Obs.Baseline.default_tolerance_pct}).
    [Error] when no pinned entry has that name. *)
val capture :
  ?tolerance_pct:float -> sweeps -> string -> (Obs.Baseline.t, string) result
