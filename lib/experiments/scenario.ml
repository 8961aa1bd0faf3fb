module Duration = Repro_prelude.Duration

type scale = {
  peers : int;
  aus : int;
  quorum : int;
  max_disagree : int;
  outer_circle : int;
  reference_target : int;
  years : float;
  runs : int;
  seed : int;
}

let bench =
  {
    peers = 25;
    aus = 4;
    quorum = 5;
    max_disagree = 1;
    outer_circle = 5;
    reference_target = 12;
    years = 2.;
    runs = 2;
    seed = 1;
  }

let paper =
  {
    peers = 100;
    aus = 50;
    quorum = 10;
    max_disagree = 3;
    outer_circle = 10;
    reference_target = 30;
    years = 2.;
    runs = 3;
    seed = 1;
  }

let sized ~peers ~aus ~quorum ~years ~runs ~seed =
  let quorum = max 2 quorum in
  {
    peers;
    aus;
    quorum;
    max_disagree = max 1 ((quorum - 1) / 3);
    outer_circle = quorum;
    reference_target = min (3 * quorum) (peers - 1);
    years;
    runs;
    seed;
  }

let default = sized ~peers:25 ~aus:4 ~quorum:5 ~years:2. ~runs:1 ~seed:1

let config ?(base = Lockss.Config.default) scale =
  {
    base with
    Lockss.Config.loyal_peers = scale.peers;
    aus = scale.aus;
    quorum = scale.quorum;
    max_disagree = scale.max_disagree;
    outer_circle_size = scale.outer_circle;
    reference_list_target = scale.reference_target;
  }

type attack =
  | No_attack
  | Pipe_stoppage of { coverage : float; duration : float; recuperation : float }
  | Admission_flood of {
      coverage : float;
      duration : float;
      recuperation : float;
      rate : float;
    }
  | Brute_force of {
      strategy : Adversary.Brute_force.strategy;
      rate : float;
      identities : int;
    }
  | Vote_flood of { rate : float }
  | Combined of attack list

let minion_count = 5

let rec extra_nodes_for = function
  | No_attack | Pipe_stoppage _ -> 0
  | Admission_flood _ | Brute_force _ | Vote_flood _ -> minion_count
  | Combined attacks -> List.fold_left (fun acc a -> acc + extra_nodes_for a) 0 attacks

(* [attach population minions attack] wires the attack, consuming minion
   nodes from the front of [minions]; returns the unconsumed rest. *)
let rec attach population minions attack =
  let take n =
    let rec split acc n rest =
      if n = 0 then (List.rev acc, rest)
      else begin
        match rest with
        | [] -> invalid_arg "Scenario.attach: not enough minion nodes"
        | x :: tl -> split (x :: acc) (n - 1) tl
      end
    in
    split [] n minions
  in
  match attack with
  | No_attack -> minions
  | Pipe_stoppage { coverage; duration; recuperation } ->
    ignore
      (Adversary.Pipe_stoppage.attach population ~coverage ~attack_duration:duration
         ~recuperation);
    minions
  | Admission_flood { coverage; duration; recuperation; rate } ->
    let mine, rest = take minion_count in
    ignore
      (Adversary.Admission_flood.attach population ~minions:mine ~coverage
         ~attack_duration:duration ~recuperation ~invitations_per_victim_au_per_day:rate);
    rest
  | Brute_force { strategy; rate; identities } ->
    let mine, rest = take minion_count in
    ignore
      (Adversary.Brute_force.attach population ~minions:mine ~strategy ~identities
         ~attempts_per_victim_au_per_day:rate);
    rest
  | Vote_flood { rate } ->
    let mine, rest = take minion_count in
    ignore
      (Adversary.Vote_flood.attach population ~minions:mine
         ~votes_per_victim_au_per_day:rate);
    rest
  | Combined attacks -> List.fold_left (attach population) minions attacks

(* -- Observability ----------------------------------------------------- *)

type trace_format = [ `Auto | `Jsonl | `Binary ]

type observe = {
  trace_out : string option;
  trace_level : Lockss.Trace.severity;
  trace_format : trace_format;
  metrics_out : string option;
  sample_interval : float;
  spans_out : string option;
  ledger_out : string option;
  profile_out : string option;
}

let default_observe =
  {
    trace_out = None;
    trace_level = Lockss.Trace.Info;
    trace_format = `Auto;
    metrics_out = None;
    sample_interval = Duration.of_days 7.;
    spans_out = None;
    ledger_out = None;
    profile_out = None;
  }

let resolve_trace_format format path : Obs.Trace_file.format =
  match format with
  | `Jsonl -> Obs.Trace_file.Jsonl
  | `Binary -> Obs.Trace_file.Binary
  | `Auto -> Obs.Trace_file.format_of_path path

(* [suffix_path path tag] inserts [.tag] before the extension:
   "out/m.csv" -> "out/m.seed3.csv". Observability output is per run —
   every job owns its files exclusively, so parallel jobs never share an
   output channel. *)
let suffix_path path tag =
  let ext = Filename.extension path in
  let base = if ext = "" then path else Filename.remove_extension path in
  Printf.sprintf "%s.%s%s" base tag ext

let seeded_path path ~seed = suffix_path path (Printf.sprintf "seed%d" seed)

(* [tag_observe tag obs] retargets both outputs so a second role in the
   same experiment (the no-attack side of a paired comparison) cannot
   collide with the first at equal seeds. *)
let tag_observe tag obs =
  let retag = Option.map (fun p -> suffix_path p tag) in
  {
    obs with
    trace_out = retag obs.trace_out;
    metrics_out = retag obs.metrics_out;
    spans_out = retag obs.spans_out;
    ledger_out = retag obs.ledger_out;
    profile_out = retag obs.profile_out;
  }

(* Trace sinks drain to the OS on a size bound (the sink's buffer) and,
   as a backstop for long quiet stretches, once per simulated month. *)
let trace_flush_interval = Duration.of_days 30.

(* Subscribe the requested trace sink and metrics sampler to a freshly
   built population; returns a cleanup closing whatever was opened. Each
   run writes (truncating) its own seed-suffixed files. *)
let subscribe_observers ?profiler ~observe ~seed population =
  match observe with
  | None -> Fun.id
  | Some obs ->
    let cleanups = ref [] in
    (match obs.trace_out with
    | None -> ()
    | Some path ->
      let sink =
        Obs.Sink.open_file ~flush_interval:trace_flush_interval
          (seeded_path path ~seed)
      in
      (* [interest] mirrors the sink's severity filter back onto the
         bus, so below-threshold events are never even constructed when
         this is the only subscriber. *)
      let trace_sink =
        match resolve_trace_format obs.trace_format path with
        | Obs.Trace_file.Jsonl ->
          Lockss.Trace.buffered_jsonl_sink ~min_severity:obs.trace_level sink
        | Obs.Trace_file.Binary ->
          Lockss.Trace.binary_sink ~min_severity:obs.trace_level
            (Obs.Btrace.writer sink)
      in
      Lockss.Trace.subscribe ~interest:obs.trace_level
        (Lockss.Population.trace population)
        trace_sink;
      cleanups := (fun () -> Obs.Sink.close sink) :: !cleanups);
    (match obs.metrics_out with
    | None -> ()
    | Some path ->
      let sink = Obs.Sink.open_file (seeded_path path ~seed) in
      let series =
        Obs.Series.create
          ~format:(Obs.Series.format_of_path path)
          ~columns:Lockss.Sampler.columns sink
      in
      let ctx = Lockss.Population.ctx population in
      let sampler =
        Lockss.Sampler.attach
          ~engine:(Lockss.Population.engine population)
          ~metrics:ctx.Lockss.Peer.metrics ~interval:obs.sample_interval
          (Lockss.Sampler.series_writer ~seed series)
      in
      cleanups :=
        (fun () ->
          Lockss.Sampler.stop sampler;
          Obs.Series.close series)
        :: !cleanups);
    (match obs.profile_out with
    | None -> ()
    | Some path ->
      let prof =
        match profiler with Some p -> p | None -> Obs.Profiler.create ()
      in
      cleanups :=
        (fun () ->
          Obs.Profiler.sample_gc prof;
          let stats = Narses.Engine.stats (Lockss.Population.engine population) in
          Out_channel.with_open_text (seeded_path path ~seed) (fun oc ->
              output_string oc
                (Obs.Json.to_string
                   (Obs.Json.Assoc
                      [
                        ("profile", Obs.Profiler.snapshot_json prof);
                        ( "engine",
                          Obs.Json.Assoc
                            [
                              ("executed", Obs.Json.Int stats.Narses.Engine.executed);
                              ("scheduled", Obs.Json.Int stats.Narses.Engine.scheduled);
                              ("cancelled", Obs.Json.Int stats.Narses.Engine.cancelled);
                              ("pending", Obs.Json.Int stats.Narses.Engine.pending);
                              ( "max_heap_depth",
                                Obs.Json.Int stats.Narses.Engine.max_heap_depth );
                            ] );
                      ]));
              output_char oc '\n'))
        :: !cleanups);
    (match (obs.spans_out, obs.ledger_out) with
    | None, None -> ()
    | spans_out, ledger_out ->
      (* The live analyzer subscribes below the severity filter: span
         and ledger reconstruction need the full Debug stream even when
         the trace file itself is written at a higher level. It reads
         the same typed events offline analysis of a trace file does. *)
      let analyzer = Check.Analyze.create () in
      Lockss.Trace.subscribe
        (Lockss.Population.trace population)
        (Check.Analyze.feed analyzer);
      cleanups :=
        (fun () ->
          (match spans_out with
          | None -> ()
          | Some path ->
            Out_channel.with_open_text (seeded_path path ~seed) (fun oc ->
                List.iter
                  (fun span ->
                    output_string oc (Obs.Json.to_string (Check.Span.span_to_json span));
                    output_char oc '\n')
                  (Check.Span.spans (Check.Analyze.span_builder analyzer))));
          match ledger_out with
          | None -> ()
          | Some path ->
            let ledger = Check.Analyze.ledger analyzer in
            let reconciliation =
              Check.Ledger.reconcile ledger (Lockss.Population.summary population)
            in
            Out_channel.with_open_text (seeded_path path ~seed) (fun oc ->
                output_string oc
                  (Obs.Json.to_string
                     (Obs.Json.Assoc
                        [
                          ("ledger", Check.Ledger.to_json ledger);
                          ( "reconciliation",
                            Check.Ledger.reconciliation_to_json reconciliation );
                        ]));
                output_char oc '\n'))
        :: !cleanups);
    fun () -> List.iter (fun f -> f ()) !cleanups

let build ~cfg ~seed attack =
  let population =
    Lockss.Population.create ~seed ~extra_nodes:(extra_nodes_for attack) cfg
  in
  ignore (attach population (Lockss.Population.extra_nodes population) attack);
  population

let maybe_phase profiler name f =
  match profiler with None -> f () | Some p -> Obs.Profiler.phase p name f

let run_one ?observe ?check ~cfg ~seed ~years attack =
  let profiler =
    match observe with
    | Some { profile_out = Some _; _ } -> Some (Obs.Profiler.create ())
    | _ -> None
  in
  let population = maybe_phase profiler "setup" (fun () -> build ~cfg ~seed attack) in
  (match check with
  | None -> ()
  | Some auditor -> Check.Auditor.attach auditor (Lockss.Population.trace population));
  let cleanup = subscribe_observers ?profiler ~observe ~seed population in
  Fun.protect ~finally:cleanup (fun () ->
      maybe_phase profiler "run" (fun () ->
          Lockss.Population.run population ~until:(Duration.of_years years));
      let summary = Lockss.Population.summary population in
      (match check with
      | None -> ()
      | Some auditor -> Check.Auditor.finish ~metrics:summary auditor);
      summary)

(* -- Auditing ----------------------------------------------------------- *)

let make_auditor ~cfg () =
  Check.Auditor.create ~params:(Check.Invariant.params_of_config cfg) ()

let mean_summaries (summaries : Lockss.Metrics.summary list) =
  match summaries with
  | [] -> invalid_arg "Scenario.mean_summaries: no runs"
  | [ s ] -> s
  | first :: _ ->
    let n = float_of_int (List.length summaries) in
    let favg f = List.fold_left (fun acc s -> acc +. f s) 0. summaries /. n in
    let iavg f =
      int_of_float
        (Float.round (List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. summaries /. n))
    in
    let isum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
    (* A run with zero reads has no empirical failure rate (NaN), and one
       NaN would poison the cross-run mean: average over the runs that
       read at all, NaN only when none did. *)
    let read_failure =
      let observed =
        List.filter_map
          (fun s ->
            if s.Lockss.Metrics.reads > 0 then
              Some s.Lockss.Metrics.empirical_read_failure
            else None)
          summaries
      in
      match observed with
      | [] -> nan
      | _ ->
        List.fold_left ( +. ) 0. observed /. float_of_int (List.length observed)
    in
    {
      first with
      Lockss.Metrics.horizon = favg (fun s -> s.Lockss.Metrics.horizon);
      access_failure_probability =
        favg (fun s -> s.Lockss.Metrics.access_failure_probability);
      polls_succeeded = iavg (fun s -> s.Lockss.Metrics.polls_succeeded);
      polls_inquorate = iavg (fun s -> s.Lockss.Metrics.polls_inquorate);
      polls_alarmed = iavg (fun s -> s.Lockss.Metrics.polls_alarmed);
      mean_success_gap = favg (fun s -> s.Lockss.Metrics.mean_success_gap);
      loyal_effort = favg (fun s -> s.Lockss.Metrics.loyal_effort);
      adversary_effort = favg (fun s -> s.Lockss.Metrics.adversary_effort);
      effort_per_successful_poll =
        favg (fun s -> s.Lockss.Metrics.effort_per_successful_poll);
      invitations_considered = iavg (fun s -> s.Lockss.Metrics.invitations_considered);
      invitations_dropped = iavg (fun s -> s.Lockss.Metrics.invitations_dropped);
      repairs = iavg (fun s -> s.Lockss.Metrics.repairs);
      (* Anomaly counters are summed, not averaged: a single underflow in
         any run must stay visible in the aggregate. *)
      repair_underflows = isum (fun s -> s.Lockss.Metrics.repair_underflows);
      votes_supplied = iavg (fun s -> s.Lockss.Metrics.votes_supplied);
      reads = iavg (fun s -> s.Lockss.Metrics.reads);
      reads_failed = iavg (fun s -> s.Lockss.Metrics.reads_failed);
      empirical_read_failure = read_failure;
    }

(* One auditor per run (runs execute on separate domains), violations
   merged back in seed order by [Runner.map], so a multi-run audit is as
   deterministic as the runs themselves. *)
let run_all ?observe ?(check = false) ~cfg scale attack =
  let runs =
    Runner.map
      (fun i ->
        let seed = scale.seed + i in
        let auditor = if check then Some (make_auditor ~cfg ()) else None in
        let summary =
          run_one ?observe ?check:auditor ~cfg ~seed ~years:scale.years attack
        in
        (summary, Option.map (fun a -> (seed, Check.Auditor.violations a)) auditor))
      (List.init scale.runs Fun.id)
  in
  (List.map fst runs, List.filter_map snd runs)

let run_avg ?observe ~cfg scale attack =
  mean_summaries (fst (run_all ?observe ~cfg scale attack))

type spread = {
  mean : Lockss.Metrics.summary;
  afp_min : float;
  afp_max : float;
}

let run_spread ?observe ~cfg scale attack =
  let runs, _ = run_all ?observe ~cfg scale attack in
  let afps = List.map (fun s -> s.Lockss.Metrics.access_failure_probability) runs in
  {
    mean = mean_summaries runs;
    afp_min = List.fold_left Float.min infinity afps;
    afp_max = List.fold_left Float.max neg_infinity afps;
  }

type comparison = {
  attack : Lockss.Metrics.summary;
  baseline : Lockss.Metrics.summary;
  access_failure : float;
  delay_ratio : float;
  friction : float;
  cost_ratio : float;
}

let ratios ~baseline ~attack =
  let safe_div a b = if b > 0. && Float.is_finite a then a /. b else infinity in
  {
    attack;
    baseline;
    access_failure = attack.Lockss.Metrics.access_failure_probability;
    delay_ratio =
      safe_div attack.Lockss.Metrics.mean_success_gap
        baseline.Lockss.Metrics.mean_success_gap;
    friction =
      safe_div attack.Lockss.Metrics.effort_per_successful_poll
        baseline.Lockss.Metrics.effort_per_successful_poll;
    cost_ratio =
      safe_div attack.Lockss.Metrics.adversary_effort
        attack.Lockss.Metrics.loyal_effort;
  }

let compare_runs ?observe ?check ~cfg scale attack =
  (* Both sides reuse the same seeds, so the baseline's sinks are
     retargeted to [.baseline]-suffixed paths. The two averaged sweeps
     are independent; run them on separate domains when available. *)
  let baseline_observe = Option.map (tag_observe "baseline") observe in
  let (baseline, baseline_audits), (attacked, attack_audits) =
    Runner.both
      (fun () -> run_all ?observe:baseline_observe ?check ~cfg scale No_attack)
      (fun () -> run_all ?observe ?check ~cfg scale attack)
  in
  let label side = List.map (fun (seed, vs) -> (side, seed, vs)) in
  ( ratios ~baseline:(mean_summaries baseline) ~attack:(mean_summaries attacked),
    label "baseline" baseline_audits @ label "attack" attack_audits )
