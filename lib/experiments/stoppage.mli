(** Figures 3, 4 and 5: repeated pipe-stoppage attacks — and the
    duration grid they share with the admission flood of Figures 6–8
    ({!Admission_attack}).

    The adversary silences a random [coverage] fraction of the population
    for [duration] (1–180 days, log-scaled in the paper), restores
    communication for a 30-day recuperation period, and repeats with a
    fresh victim subset for the whole experiment.

    Shape targets: access failure (Fig. 3) grows with coverage and
    duration but stays within about one order of magnitude of baseline
    even at 100 % coverage for 180 days; the delay ratio (Fig. 4) needs
    attacks of ≥ ~60 days to rise an order of magnitude; the coefficient
    of friction (Fig. 5) is ≈ 1 for short attacks and grows toward ~10
    for long ones. *)

(** One cell of a duration grid: the attack's coverage and duration and
    the paper's three measures against the shared baseline. *)
type point = {
  coverage : float;
  duration : float;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

val default_durations : float list
val default_coverages : float list

(** [grid ~attack ~scale ~durations ~coverages] runs
    [attack ~coverage ~duration] at every grid cell, coverage-major,
    against one shared no-attack baseline. The baseline and every cell
    are one {!Runner} job each, baseline first, merged in grid order. *)
val grid :
  attack:(coverage:float -> duration:float -> Scenario.attack) ->
  scale:Scenario.scale ->
  durations:float list ->
  coverages:float list ->
  point list

(** [sweep ?scale ?durations ?coverages ()] is the pipe-stoppage
    {!grid} with a 30-day recuperation. *)
val sweep :
  ?scale:Scenario.scale ->
  ?durations:float list ->
  ?coverages:float list ->
  unit ->
  point list

(** One of the three measures a duration-grid figure plots. *)
type metric = {
  key : string;  (** pinned-metric name *)
  label : string;  (** the measure, as a plot title starts *)
  header : string;  (** table column *)
  ylabel : string;  (** plot y axis *)
  cell : float -> string;  (** table cell format *)
  value : point -> float;
}

(** The measures of Figures 3/6, 4/7 and 5/8. *)
val access_failure : metric

val delay_ratio : metric
val friction : metric

(** [table metric points] renders one figure: coverage, attack duration
    and [metric], one row per point. *)
val table : metric -> point list -> Repro_prelude.Table.t
