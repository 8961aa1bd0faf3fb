(** Figures 6, 7 and 8: the admission-control (Sybil garbage-invitation)
    adversary.

    The adversary floods a [coverage] fraction of the population with
    cheap garbage invitations from never-seen identities for [duration],
    recuperates 30 days, and repeats. Every admitted invitation
    retriggers the victim's refractory period, shutting out loyal
    unknown/in-debt pollers.

    Shape targets: access failure (Fig. 6) and delay ratio (Fig. 7)
    barely move even at full coverage for the whole experiment; the
    coefficient of friction (Fig. 8) rises with duration, up to ≈ +33 %
    at full coverage and 2-year duration, because loyal pollers burn
    introductory efforts that refractory victims summarily drop.

    The sweep is a {!Stoppage.grid}: its points, tables and metrics are
    the pipe stoppage's. *)

(** [sweep ?scale ?durations ?coverages ?rate ()] floods at [rate]
    garbage invitations per victim-AU per day (default 24), by default
    for 10 days to 2 years at 10, 50 and 100 % coverage. *)
val sweep :
  ?scale:Scenario.scale ->
  ?durations:float list ->
  ?coverages:float list ->
  ?rate:float ->
  unit ->
  Stoppage.point list
