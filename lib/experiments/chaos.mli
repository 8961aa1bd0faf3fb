(** The fault harness: run seeds under injected faults and hold each to
    the invariants the paper takes for granted.

    The paper evaluates the protocol on a perfectly reliable substrate;
    this harness drives the same {!Scenario} configurations through
    {!Narses.Faults} mixes (message loss, latency jitter, duplication,
    node churn, and the Byzantine content set: field corruption,
    replay, stale delivery and stray injection). Each seed runs with
    the runtime invariant auditor attached ({!run_seed}) and is clean
    only when

    - the run completed without any handler raising;
    - the run made progress (at least one poll succeeded);
    - it has no {!Check.Invariant.violation}, where the violations are
      the auditor's, then the leak audit's ({!Check.Leak}: no leaked
      timer, dangling event reference or lingering closed session),
      then the harness's own checks, by id:
      - ["stuck-poll"] — one per in-flight poll older than two
        inter-poll intervals at the end of the run;
      - ["pending-growth"] — the engine's pending-event population grew
        materially between the horizon's midpoint and its end (leaked
        timeouts);
      - ["message-conservation"] — sent + duplicated + injected =
        delivered + dropped + in-flight fails, with in-flight
        non-negative and bounded by the pending queue;
      - ["churn-accounting"] — crashes = restarts + nodes still down
        fails;
      - ["degradation"] — access-failure probability exceeds an order
        of magnitude of the fault-free paired run (same seed, same
        attack), per the paper's paired-run methodology.

    The leak audit and the harness's checks run only on a seed that
    stopped cleanly: after a handler exception the exception is the
    failure. Every mutated, replayed, stale or stray message must
    therefore be either rejected with a taxonomized [message_rejected]
    event or absorbed without corrupting protocol state.

    Runs are driven with an event budget ({!event_budget}) so a livelock
    raises {!Narses.Engine.Event_limit_exceeded} instead of hanging. *)

type mix = {
  loss : float;  (** per-copy drop probability *)
  jitter : float;  (** max extra delivery latency, seconds *)
  duplication : float;  (** per-message duplication probability *)
  churn_per_day : float;  (** crashes per node per day *)
  downtime : float;  (** seconds a crashed node stays down *)
  corruption : float;  (** per-copy field-corruption probability *)
  replay : float;  (** per-send probability of replaying a past delivery *)
  stale : float;  (** per-send probability of a long-delayed replay *)
  stray : float;  (** per-send probability of forging an unsolicited message *)
  fault_seed : int;  (** seed of the dedicated fault stream *)
}

(** [default_mix] is the acceptance mix: 5 % loss, 0.5 s jitter, 2 %
    duplication, 0.01 crashes/node/day with 3-day downtime, plus the
    Byzantine content set (2 % corruption, 1 % replay, 0.5 % stale,
    1 % stray), seed 7. *)
val default_mix : mix

(** [faults_config mix] is the corresponding injector configuration. *)
val faults_config : mix -> Narses.Faults.config

(** [mix_json mix] records every field of [faults_config mix] (the stale
    delay and the fault seed included), so a run manifest can replay the
    mix. *)
val mix_json : mix -> Obs.Json.t

(** The livelock backstop of {!run_seed}: far above any legitimate run
    at these scales (the bench scale fires a few million events), so
    only a genuine livelock exhausts it. *)
val event_budget : int

(** {2 One faulted seed} *)

type seed_run = {
  population : Lockss.Population.t;  (** as the run left it, injector included *)
  summary : Lockss.Metrics.summary;
  pending_mid : int;  (** engine pending events at the horizon's midpoint *)
  pending_end : int;  (** ... and at its end *)
  handler_exn : exn option;  (** exception escaping the run, if any *)
  audit : Check.Invariant.violation list;  (** the auditor's verdict *)
  leaks : Check.Invariant.violation list;
      (** {!Check.Leak} findings; [[]] after a handler exception *)
  rejected_by_reason : (string * int) list;
      (** [message_rejected] events by reason, sorted *)
}

(** [run_seed ?auditor ?attack ~scale ~seed mix] is the harness's one
    faulted seed run. It validates [mix] (raising [Invalid_argument]),
    builds the scale's configuration with the mix injected, builds the
    population, subscribes [auditor ~cfg ()] (default
    {!Scenario.make_auditor}) and a rejection tally, runs to the
    horizon's midpoint and then to its end under {!event_budget}, and
    catches any handler exception as [handler_exn]. The summary is
    taken either way; a run that stopped cleanly is then leak-audited.
    Auditing only observes: the summary equals {!Scenario.run_one}'s
    on the same faulted configuration. Default attack: none. *)
val run_seed :
  ?auditor:(cfg:Lockss.Config.t -> unit -> Check.Auditor.t) ->
  ?attack:Scenario.attack ->
  scale:Scenario.scale ->
  seed:int ->
  mix ->
  seed_run

(** {2 The soak} *)

type seed_report = {
  seed : int;
  polls_succeeded : int;
  rejected : int;  (** [message_rejected] events observed *)
  rejected_by_reason : (string * int) list;  (** taxonomy breakdown, sorted *)
  injected : int;  (** corruption + replay + stale + stray injections *)
  checked : string list;
      (** the harness check ids evaluated, in order; [[]] after a
          handler exception *)
  violations : Check.Invariant.violation list;
      (** auditor, then leak audit, then the harness checks *)
  handler_exn : string option;  (** exception escaping the run, if any *)
}

type soak_report = {
  mix : mix;
  years : float;
  seeds : seed_report list;  (** in seed order *)
}

(** [seed_report ~seed ~fault_free r] reduces {!run_seed}'s result to
    its soak verdict, evaluating the harness checks against the
    fault-free paired run's summary [fault_free]. *)
val seed_report : seed:int -> fault_free:Lockss.Metrics.summary -> seed_run -> seed_report

(** A seed is clean per the criteria above. *)
val seed_clean : seed_report -> bool

val all_clean : soak_report -> bool

(** [soak ?scale ?attack ~seeds mix] runs each of [seeds] through
    {!run_seed} and its fault-free {!Scenario.run_one} pair, fanned out
    over the {!Runner} pool; results are deterministic per seed and
    independent of the worker count. Defaults: {!Scenario.bench} scale,
    no attack. *)
val soak :
  ?scale:Scenario.scale -> ?attack:Scenario.attack -> seeds:int list -> mix -> soak_report

val pp_soak : Format.formatter -> soak_report -> unit

(** Machine-readable soak report; the violation entries reuse
    {!Check.Invariant.violation_to_json}. *)
val soak_json : soak_report -> Obs.Json.t
