(** Experiment scaffolding: scales, attacks, paired runs and ratio
    metrics.

    The paper's evaluation compares each attack run against a no-attack
    baseline with identical parameters and seeds: delay ratio and the
    coefficient of friction are "the same measurement without the attack"
    ratios, and the cost ratio compares attacker and defender effort
    within the attack run. {!compare_runs} packages that methodology.

    Every plain seeded run goes through {!run_one}: observed runs pass
    [?observe], audited runs pass [?check], and the sweeps above it
    ({!run_all}, {!run_avg}, {!compare_runs}) only fan it out over seeds
    and sides. Runs under an injected fault mix go through
    {!Chaos.run_seed} instead; harnesses that time or probe a run
    themselves start from {!build}.

    Two standard scales are provided. {!paper} is the configuration of
    Section 6.3 (100 peers, 3-month interval, quorum 10, 2 simulated
    years, 3 runs per data point). {!bench} is a proportionally reduced
    deployment (25 peers, quorum 5) whose full figure suite runs in
    minutes; attack phenomenology is scale-stable, which the tests
    check. *)

type scale = {
  peers : int;
  aus : int;
  quorum : int;
  max_disagree : int;
  outer_circle : int;
  reference_target : int;
  years : float;  (** simulated horizon *)
  runs : int;  (** runs averaged per data point *)
  seed : int;
}

val bench : scale
val paper : scale

(** [sized ~peers ~aus ~quorum ~years ~runs ~seed] is the scale a
    [lockss_sim] command runs at: quorum at least 2, and the landslide
    margin, outer circle and reference list derived from it. *)
val sized :
  peers:int -> aus:int -> quorum:int -> years:float -> runs:int -> seed:int -> scale

(** The scale every [lockss_sim] command defaults to (25 peers, 4 AUs,
    quorum 5, 2 years, 1 run, seed 1): the committed figure pins under
    [baselines/] are made at it. *)
val default : scale

(** [config ?base scale] specialises a configuration (default
    {!Lockss.Config.default}) to the scale. *)
val config : ?base:Lockss.Config.t -> scale -> Lockss.Config.t

type attack =
  | No_attack
  | Pipe_stoppage of { coverage : float; duration : float; recuperation : float }
  | Admission_flood of {
      coverage : float;
      duration : float;
      recuperation : float;
      rate : float;  (** garbage invitations per victim-AU per day *)
    }
  | Brute_force of {
      strategy : Adversary.Brute_force.strategy;
      rate : float;  (** admission attempts per victim-AU per day *)
      identities : int;
    }
  | Vote_flood of { rate : float  (** unsolicited bogus votes per victim-AU per day *) }
  | Combined of attack list
      (** several adversaries at once (Section 9's combined strategies);
          each effortful sub-attack gets its own minion nodes *)

(** {2 Observability}

    Observability is a per-run argument, threaded explicitly from the
    caller down to each job: simulation runs execute on multiple domains
    ({!Runner}), so there is no process-wide setting and no shared
    output channel. Each run writes its own files, the configured paths
    suffixed with the run's seed ([m.csv] becomes [m.seed3.csv]), so a
    multi-run sweep yields one file per seed. *)

(** Encoding of the [trace_out] file. [`Auto] resolves from the path's
    extension ([.ntrace] is binary, anything else JSONL). *)
type trace_format = [ `Auto | `Jsonl | `Binary ]

type observe = {
  trace_out : string option;
      (** write protocol events to this path, suffixed per run by seed —
          JSONL ({!Lockss.Trace.buffered_jsonl_sink}) or the compact
          binary format ({!Obs.Btrace}) per [trace_format]; buffered
          either way, with the file closed (and therefore flushed) when
          the run ends *)
  trace_level : Lockss.Trace.severity;  (** minimum severity written *)
  trace_format : trace_format;
  metrics_out : string option;
      (** write periodic metric samples to this path, suffixed per run
          by seed; [.jsonl]/[.json] selects JSONL, anything else CSV
          (columns {!Lockss.Sampler.columns}) *)
  sample_interval : float;  (** seconds of simulated time between samples *)
  spans_out : string option;
      (** write reconstructed poll spans ({!Check.Span.span_to_json}, one
          JSONL line per poll) to this path, suffixed per run by seed.
          The live span builder subscribes below the severity filter, so
          spans are complete even at [trace_level = Warn] *)
  ledger_out : string option;
      (** write the per-peer effort ledger plus its reconciliation
          against the run's metrics as one JSON object to this path,
          suffixed per run by seed *)
  profile_out : string option;
      (** write a run-wide profile (phase wall-clock, GC counters,
          engine stats) as one JSON object to
          this path, suffixed per run by seed *)
}

(** [default_observe] writes nothing: all outputs [None], level [Info],
    [`Auto] trace format, 7-day sampling interval. *)
val default_observe : observe

(** [seeded_path path ~seed] is the per-run output path derived from a
    configured [path]: [.seed<N>] inserted before the extension. *)
val seeded_path : string -> seed:int -> string

(** [tag_observe tag obs] retargets both output paths with an extra
    [.tag] suffix — used by paired comparisons whose two sides reuse the
    same seeds ({!compare_runs} tags its no-attack side [baseline]). *)
val tag_observe : string -> observe -> observe

(** [build ~cfg ~seed attack] constructs the population with the attack
    attached but does not run it — for harnesses (like {!Chaos}) that
    need to subscribe observers or probe engine state mid-run. *)
val build : cfg:Lockss.Config.t -> seed:int -> attack -> Lockss.Population.t

(** [run_one ?observe ?check ~cfg ~seed ~years attack] builds a
    population, attaches the attack, runs the horizon and returns the
    finalised metrics, writing the run's trace/metrics files when
    [observe] is given. When a [check] auditor is given it is attached
    to the run's trace bus (so every protocol invariant is evaluated
    online and violations land in the trace as
    [Invariant_violated] events) and finished against the run's metrics
    before returning. *)
val run_one : ?observe:observe -> ?check:Check.Auditor.t -> cfg:Lockss.Config.t ->
  seed:int -> years:float -> attack -> Lockss.Metrics.summary

(** [make_auditor ~cfg ()] is a fresh auditor parameterised by the run
    configuration ({!Check.Invariant.params_of_config}). *)
val make_auditor : cfg:Lockss.Config.t -> unit -> Check.Auditor.t

(** [run_all ?observe ?check ~cfg scale attack] runs seeds [scale.seed],
    [scale.seed+1], … in parallel over {!Runner} workers and returns the
    summaries in seed order — byte-identical to a serial loop. With
    [check] (default [false]) each run gets its own {!make_auditor}, and
    the second component holds every run's violations tagged with its
    seed, in seed order; unchecked, it is empty. *)
val run_all :
  ?observe:observe -> ?check:bool -> cfg:Lockss.Config.t -> scale -> attack ->
  Lockss.Metrics.summary list * (int * Check.Invariant.violation list) list

(** [run_avg ?observe ~cfg scale attack] is {!mean_summaries} of
    {!run_all}: [scale.runs] runs averaged ({!run_all}'s parallelism
    included). *)
val run_avg :
  ?observe:observe -> cfg:Lockss.Config.t -> scale -> attack ->
  Lockss.Metrics.summary

(** [mean_summaries summaries] averages metrics across runs. Counters
    average (rounded); anomaly counters ([repair_underflows]) sum so a
    single anomaly stays visible; [empirical_read_failure] averages over
    the runs that performed reads (NaN only when none did). *)
val mean_summaries : Lockss.Metrics.summary list -> Lockss.Metrics.summary

type spread = {
  mean : Lockss.Metrics.summary;
  afp_min : float;  (** lowest access-failure probability across runs *)
  afp_max : float;  (** highest, matching the min/max bars of Figure 2 *)
}

(** [run_spread ?observe ~cfg scale attack] is {!run_avg} plus the
    across-run extremes of the access-failure probability. *)
val run_spread : ?observe:observe -> cfg:Lockss.Config.t -> scale -> attack -> spread

type comparison = {
  attack : Lockss.Metrics.summary;
  baseline : Lockss.Metrics.summary;
  access_failure : float;  (** of the attack run *)
  delay_ratio : float;
  friction : float;
  cost_ratio : float;
}

(** [ratios ~baseline ~attack] forms the paper's three ratio metrics. *)
val ratios : baseline:Lockss.Metrics.summary -> attack:Lockss.Metrics.summary ->
  comparison

(** [compare_runs ?observe ?check ~cfg scale attack] runs both sides
    (on two domains when available) and returns the comparison; the
    baseline side's observability paths are tagged [baseline] because
    both sides reuse the same seeds. With [check], both sides are
    audited as in {!run_all}, and each violation list comes back tagged
    with its side (["baseline"] or ["attack"]) and seed, baseline side
    first; unchecked, the list is empty. *)
val compare_runs :
  ?observe:observe -> ?check:bool -> cfg:Lockss.Config.t -> scale -> attack ->
  comparison * (string * int * Check.Invariant.violation list) list
