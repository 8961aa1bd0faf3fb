(** Chaos harness: run scenarios under injected faults and assert the
    protocol's liveness and accounting invariants.

    The paper evaluates the protocol on a perfectly reliable substrate;
    this harness drives the same {!Scenario} configurations through
    {!Narses.Faults} mixes (message loss, latency jitter, duplication,
    node churn) and checks what the paper takes for granted:

    - {e liveness}: polls keep succeeding despite the fault mix;
    - {e no stuck poll}: no in-flight poll older than two inter-poll
      intervals at the end of the run;
    - {e no leaked timeouts}: the engine's pending-event population does
      not grow between the run's midpoint and its end;
    - {e message conservation}: sent + duplicated + injected = delivered
      + dropped + in-flight, with in-flight non-negative and bounded by
      the pending queue;
    - {e churn accounting}: crashes = restarts + nodes still down;
    - {e leak audit}: the engine's live timers reconcile exactly with
      the protocol state that owns them ({!Check.Leak});
    - {e bounded degradation}: access-failure probability stays within an
      order of magnitude of the fault-free paired run (same seed, same
      attack), per the paper's paired-run methodology.

    Runs are driven with an event budget ({!event_budget}) so a livelock
    raises {!Narses.Engine.Event_limit_exceeded} instead of hanging.

    The same faulted seed run ({!run_seed}) also drives the multi-seed
    {!soak}: every fault shape on, the runtime invariant auditor
    attached, and a seed that is clean only when

    - the run completed without any handler raising;
    - the auditor observed zero protocol-invariant violations;
    - the leak audit found zero leaked timers, dangling event
      references or lingering closed sessions;
    - the run made progress (at least one poll succeeded).

    Every mutated, replayed, stale or stray message must therefore be
    either rejected with a taxonomized [message_rejected] event or
    absorbed without corrupting protocol state. *)

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

(** What the injector did during one run. *)
type fault_counts = {
  dropped : int;
  duplicated : int;
  delayed : int;
  corrupted : int;
  replayed : int;
  stale : int;
  stray : int;
  crashes : int;
  restarts : int;
}

type check = { name : string; ok : bool; detail : string }

type report = {
  checks : check list;
  faulty : Lockss.Metrics.summary;  (** the run under the fault mix *)
  fault_free : Lockss.Metrics.summary;  (** paired run, faults off *)
  comparison : Scenario.comparison;  (** faulty vs fault-free ratios *)
  faults : fault_counts;  (** injected into the faulty run *)
}

val all_green : report -> bool

(** The livelock backstop of {!run_seed}: far above any legitimate run
    at these scales (the bench scale fires a few million events), so
    only a genuine livelock exhausts it. *)
val event_budget : int

(** {2 One faulted seed} *)

type seed_run = {
  population : Lockss.Population.t;  (** as the run left it *)
  summary : Lockss.Metrics.summary;
  pending_mid : int;  (** engine pending events at the horizon's midpoint *)
  pending_end : int;  (** ... and at its end *)
  handler_exn : exn option;  (** exception escaping the run, if any *)
  audit : Check.Invariant.violation list;  (** auditor verdict; [[]] unchecked *)
  leaks : Check.Invariant.violation list;
      (** {!Check.Leak} findings; [[]] after a handler exception *)
  rejected_by_reason : (string * int) list;
      (** [message_rejected] events by reason, sorted; [[]] unchecked *)
  faults : fault_counts;
}

(** [run_seed ?check ?attack ~scale ~seed mix] is the one faulted seed
    run of both harnesses. It validates [mix] (raising
    [Invalid_argument]), builds the scale's configuration with the mix
    injected, builds the population, runs it to the horizon's midpoint
    and then to its end under {!event_budget}, and catches any handler
    exception as [handler_exn]. The summary is taken either way; a run
    that stopped cleanly is then leak-audited, and the fault counters
    are snapshot last.

    With [check], an auditor [check ~cfg ()] (typically
    {!Scenario.make_auditor}) and a rejection tally subscribe before the
    run; without it nothing extra subscribes, and the run is the same
    event for event. Default attack: none. *)
val run_seed :
  ?check:(cfg:Lockss.Config.t -> unit -> Check.Auditor.t) ->
  ?attack:Scenario.attack ->
  scale:Scenario.scale ->
  seed:int ->
  mix ->
  seed_run

(** {2 Harnesses} *)

(** [run ?scale ?attack mix] executes {!run_seed} unchecked at
    [scale.seed], pairs it with the fault-free run of the same seed, and
    evaluates every invariant; a handler exception is re-raised.
    Defaults: {!Scenario.bench}, no attack. *)
val run : ?scale:Scenario.scale -> ?attack:Scenario.attack -> mix -> report

val pp_report : Format.formatter -> report -> unit

type seed_report = {
  seed : int;
  polls_succeeded : int;
  rejected : int;  (** [message_rejected] events observed *)
  rejected_by_reason : (string * int) list;  (** taxonomy breakdown, sorted *)
  injected : int;  (** corruption + replay + stale + stray injections *)
  violations : Check.Invariant.violation list;  (** auditor then leak audit *)
  handler_exn : string option;  (** exception escaping the run, if any *)
}

type soak_report = {
  mix : mix;
  years : float;
  seeds : seed_report list;  (** in seed order *)
}

(** [seed_report ~seed r] reduces a checked {!run_seed} to its soak
    verdict. *)
val seed_report : seed:int -> seed_run -> seed_report

(** A seed is clean per the criteria above. *)
val seed_clean : seed_report -> bool

val all_clean : soak_report -> bool

(** [soak ?scale ?attack ~seeds mix] runs {!run_seed} checked with
    {!Scenario.make_auditor} at each of [seeds], fanned out over the
    {!Runner} pool; results are deterministic per seed. Defaults:
    {!Scenario.bench} scale, no attack. *)
val soak :
  ?scale:Scenario.scale -> ?attack:Scenario.attack -> seeds:int list -> mix -> soak_report

val pp_soak : Format.formatter -> soak_report -> unit

(** Machine-readable soak report; the violation entries reuse
    {!Check.Invariant.violation_to_json}. *)
val soak_json : soak_report -> Obs.Json.t

(** [ablation ?scale mix] crosses faults with a pipe-stoppage attack:
    fault-free / faults only / stoppage only / stoppage + faults, one
    table row each (access failure and poll outcomes). *)
val ablation : ?scale:Scenario.scale -> mix -> Repro_prelude.Table.t
