(* lockss_sim: command-line driver for the LOCKSS attrition-defense
   simulator.

     lockss_sim run           -- one scenario, fully parameterised
     lockss_sim reproduce     -- regenerate a paper figure/table
     lockss_sim ablate …      -- the other experiments (Registry)
     lockss_sim soak          -- fault injection + invariant checks
     lockss_sim pin-baseline  -- pin golden result baselines
     lockss_sim diff-baseline -- diff fresh results against the pins *)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario
module Chaos = Experiments.Chaos
module Registry = Experiments.Registry
open Cmdliner

(* -- Shared options ---------------------------------------------------- *)

let peers =
  Arg.(
    value
    & opt int Scenario.default.peers
    & info [ "peers" ] ~docv:"N" ~doc:"Loyal peer population size.")

let aus =
  Arg.(
    value
    & opt int Scenario.default.aus
    & info [ "aus" ] ~docv:"N" ~doc:"Archival units preserved per peer.")

let quorum =
  Arg.(
    value & opt int Scenario.default.quorum & info [ "quorum" ] ~docv:"N" ~doc:"Poll quorum.")

let years =
  Arg.(
    value
    & opt float Scenario.default.years
    & info [ "years" ] ~docv:"Y" ~doc:"Simulated horizon in years.")

let runs =
  Arg.(
    value
    & opt int Scenario.default.runs
    & info [ "runs" ] ~docv:"N" ~doc:"Runs averaged per data point.")

let seed =
  Arg.(
    value
    & opt int Scenario.default.seed
    & info [ "seed" ] ~docv:"S" ~doc:"Root random seed.")

(* Every command that fans out independent simulations honors --jobs;
   the setting is a performance knob only — results are byte-identical
   at any worker count. *)
let jobs =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulation runs: $(b,1) forces serial \
           execution, $(b,0) (default) uses $(b,LOCKSS_JOBS) or the machine's \
           recommended domain count. Results are identical at any setting.")

let set_jobs n =
  try Experiments.Runner.set_jobs n
  with Invalid_argument msg ->
    Printf.eprintf "invalid --jobs: %s\n" msg;
    exit 2

let capacity =
  Arg.(
    value
    & opt float 1.0
    & info [ "capacity" ]
        ~docv:"C"
        ~doc:"Per-peer compute capacity (over-provisioning factor; 1.0 = reference PC).")

let mttf =
  Arg.(
    value
    & opt float 5.0
    & info [ "disk-mttf-years" ] ~docv:"Y"
        ~doc:"Mean years between block failures per 50-AU disk.")

let interval_months =
  Arg.(
    value
    & opt float 3.0
    & info [ "interval-months" ] ~docv:"M" ~doc:"Inter-poll interval in months.")

(* -- Fault-injection options (shared by run and soak) ------------------ *)

(* [mix_term defaults] builds the --loss/--jitter/--dup/--churn family;
   [run] defaults everything to zero (faults opt-in), [soak] defaults to
   the acceptance mix. *)
let mix_term (d : Chaos.mix) =
  let loss =
    Arg.(
      value
      & opt float d.Chaos.loss
      & info [ "loss" ] ~docv:"P" ~doc:"Per-copy message loss probability in [0,1].")
  in
  let jitter =
    Arg.(
      value
      & opt float d.Chaos.jitter
      & info [ "jitter" ] ~docv:"S"
          ~doc:"Maximum extra delivery latency in seconds (drawn uniformly per copy).")
  in
  let dup =
    Arg.(
      value
      & opt float d.Chaos.duplication
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability in [0,1].")
  in
  let churn =
    Arg.(
      value
      & opt float d.Chaos.churn_per_day
      & info [ "churn" ] ~docv:"R" ~doc:"Crashes per peer per day (Poisson schedule).")
  in
  let downtime_days =
    Arg.(
      value
      & opt float (d.Chaos.downtime /. Duration.day)
      & info [ "downtime-days" ] ~docv:"D" ~doc:"Days a crashed peer stays down.")
  in
  let corrupt =
    Arg.(
      value
      & opt float d.Chaos.corruption
      & info [ "corrupt" ] ~docv:"P"
          ~doc:
            "Per-copy probability in [0,1] of corrupting one message field \
             (deterministic seeded mutation) before delivery.")
  in
  let replay =
    Arg.(
      value
      & opt float d.Chaos.replay
      & info [ "replay" ] ~docv:"P"
          ~doc:
            "Per-send probability in [0,1] of re-injecting a recently delivered \
             message from the replay ring.")
  in
  let stale =
    Arg.(
      value
      & opt float d.Chaos.stale
      & info [ "stale" ] ~docv:"P"
          ~doc:
            "Per-send probability in [0,1] of re-injecting a past delivery after a \
             multi-day delay, well outside every protocol timeout.")
  in
  let stray =
    Arg.(
      value
      & opt float d.Chaos.stray
      & info [ "stray" ] ~docv:"P"
          ~doc:
            "Per-send probability in [0,1] of forging an unsolicited protocol message \
             (vote, ack, proof, receipt or invitation) from an arbitrary identity.")
  in
  let fault_seed =
    Arg.(
      value
      & opt int d.Chaos.fault_seed
      & info [ "fault-seed" ] ~docv:"S"
          ~doc:
            "Seed of the dedicated fault randomness stream; equal seeds replay \
             identical fault traces.")
  in
  let make loss jitter duplication churn_per_day downtime_days corruption replay stale
      stray fault_seed =
    {
      Chaos.loss;
      jitter;
      duplication;
      churn_per_day;
      downtime = Duration.of_days downtime_days;
      corruption;
      replay;
      stale;
      stray;
      fault_seed;
    }
  in
  Term.(
    const make $ loss $ jitter $ dup $ churn $ downtime_days $ corrupt $ replay $ stale
    $ stray $ fault_seed)

(* The soak command rejects an invalid mix before running. *)
let validate_mix mix =
  try Narses.Faults.validate (Chaos.faults_config mix)
  with Invalid_argument msg ->
    Printf.eprintf "invalid fault mix: %s\n" msg;
    exit 2

let zero_mix =
  {
    Chaos.default_mix with
    Chaos.loss = 0.;
    jitter = 0.;
    duplication = 0.;
    churn_per_day = 0.;
    corruption = 0.;
    replay = 0.;
    stale = 0.;
    stray = 0.;
  }

(* -- Observability options (shared by run and reproduce) --------------- *)

let duration_arg =
  let parse s =
    match Duration.of_string s with Ok d -> Ok d | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Duration.pp)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write structured protocol events to $(docv) — JSONL (one object per event) \
           or the compact binary format, per --trace-format.")

let trace_format =
  let formats = [ ("auto", `Auto); ("jsonl", `Jsonl); ("binary", `Binary) ] in
  Arg.(
    value
    & opt (enum formats) `Auto
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Encoding of --trace-out: $(b,jsonl), $(b,binary) (compact length-prefixed \
           records, typically several times smaller; convert with $(b,trace-convert)), \
           or $(b,auto) (default: a $(b,.ntrace) extension selects binary, anything \
           else JSONL).")

let trace_level =
  let levels =
    [ ("debug", Lockss.Trace.Debug); ("info", Lockss.Trace.Info); ("warn", Lockss.Trace.Warn) ]
  in
  Arg.(
    value
    & opt (enum levels) Lockss.Trace.Debug
    & info [ "trace-level" ] ~docv:"LEVEL"
        ~doc:
          "Minimum severity written to --trace-out: $(b,debug) (all protocol chatter), \
           $(b,info) (poll lifecycle, drops, repairs), $(b,warn) (inquorate/alarmed \
           polls only).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Append periodic metric samples to $(docv): a time series of damage, poll \
           outcomes, admission activity and effort. A $(b,.jsonl)/$(b,.json) suffix \
           selects JSONL; anything else writes CSV.")

let sample_interval =
  Arg.(
    value
    & opt duration_arg (Duration.of_days 7.)
    & info [ "sample-interval" ] ~docv:"DUR"
        ~doc:
          "Simulated time between metric samples, e.g. $(b,7d), $(b,12h), $(b,1mo) \
           (default 7d).")

let spans_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans-out" ] ~docv:"FILE"
        ~doc:
          "Write reconstructed poll spans to $(docv) as JSONL, one object per poll: \
           phase timestamps, vote/repair counts, correlated effort and outcome.")

let ledger_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger-out" ] ~docv:"FILE"
        ~doc:
          "Write the per-peer provable-effort ledger (spent and received per protocol \
           phase) plus its reconciliation against the run's metrics to $(docv) as JSON.")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write a run-wide profile to $(docv) as JSON: per-phase wall-clock, GC \
           counters (allocation, collections, heap size), the metric-registry \
           snapshot and engine event statistics.")

let observe_term =
  let make trace_out trace_level trace_format metrics_out sample_interval spans_out
      ledger_out profile_out =
    if
      trace_out = None && metrics_out = None && spans_out = None && ledger_out = None
      && profile_out = None
    then None
    else
      Some
        {
          Experiments.Scenario.trace_out;
          trace_level;
          trace_format;
          metrics_out;
          sample_interval;
          spans_out;
          ledger_out;
          profile_out;
        }
  in
  Term.(
    const make $ trace_out $ trace_level $ trace_format $ metrics_out $ sample_interval
    $ spans_out $ ledger_out $ profile_out)

(* -- Manifest + baseline options --------------------------------------- *)

let manifest_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest-out" ] ~docv:"FILE"
        ~doc:
          "Write a run manifest to $(docv) as one JSON object: command, targets, the \
           seed list consumed, worker-domain counts, injected fault mix, git revision, \
           host/toolchain identification, and wall/CPU seconds.")

(* The manifest handle is opened before the sweep so wall/CPU cover the
   whole command; writing is a no-op without --manifest-out. *)
let emit_manifest ~manifest_out ~handle ~seeds ?targets ?fault_mix () =
  match manifest_out with
  | None -> ()
  | Some path ->
    Experiments.Manifest.write ~path
      (Experiments.Manifest.finish handle ~seeds ?targets ?fault_mix ());
    Printf.printf "wrote manifest %s\n" path

let seeds_of_scale (scale : Scenario.scale) =
  List.init scale.Scenario.runs (fun i -> scale.Scenario.seed + i)

let baseline_dir =
  Arg.(
    value
    & opt string "baselines"
    & info [ "baseline-dir" ] ~docv:"DIR"
        ~doc:"Directory holding the pinned golden baselines (default $(b,baselines)).")

let config_of scale ~capacity ~mttf ~interval_months =
  {
    (Scenario.config scale) with
    Lockss.Config.capacity;
    disk_mttf_years = mttf;
    inter_poll_interval = Duration.of_months interval_months;
  }

(* -- run command ------------------------------------------------------- *)

type attack_kind =
  | A_none
  | A_stoppage
  | A_flood
  | A_vote_flood
  | A_brute_intro
  | A_brute_remaining
  | A_brute_none

let attack_kind =
  let kinds =
    [
      ("none", A_none);
      ("stoppage", A_stoppage);
      ("flood", A_flood);
      ("vote-flood", A_vote_flood);
      ("brute-intro", A_brute_intro);
      ("brute-remaining", A_brute_remaining);
      ("brute-none", A_brute_none);
    ]
  in
  Arg.(
    value
    & opt (enum kinds) A_none
    & info [ "attack" ] ~docv:"KIND"
        ~doc:
          "Adversary: $(b,none), $(b,stoppage) (network-level pipe stoppage), $(b,flood) \
           (admission-control garbage), $(b,vote-flood) (unsolicited bogus votes), \
           $(b,brute-intro)/$(b,brute-remaining)/$(b,brute-none) (effortful adversary by \
           defection point).")

let coverage =
  Arg.(
    value
    & opt float 1.0
    & info [ "coverage" ] ~docv:"F" ~doc:"Fraction of the population attacked (0,1].")

let duration_days =
  Arg.(
    value
    & opt float 90.
    & info [ "attack-days" ] ~docv:"D" ~doc:"Attack duration per cycle, in days.")

let attack_of kind ~coverage ~duration_days =
  let duration = Duration.of_days duration_days in
  let recuperation = Duration.of_days 30. in
  let brute strategy = Scenario.Brute_force { strategy; rate = 5.; identities = 50 } in
  match kind with
  | A_none -> Scenario.No_attack
  | A_stoppage -> Scenario.Pipe_stoppage { coverage; duration; recuperation }
  | A_flood -> Scenario.Admission_flood { coverage; duration; recuperation; rate = 24. }
  | A_vote_flood -> Scenario.Vote_flood { rate = 10. }
  | A_brute_intro -> brute Adversary.Brute_force.Intro
  | A_brute_remaining -> brute Adversary.Brute_force.Remaining
  | A_brute_none -> brute Adversary.Brute_force.Full

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Attach the runtime invariant auditor to every run: protocol invariants \
           (effort balance, refractory self-clocking, grade decay, sampling, quorum, \
           ledger conservation) are evaluated online against the trace stream; any \
           violation is printed, written to --trace-out as an $(b,invariant_violated) \
           event, and makes the command exit with status 1.")

(* Audits come back as (label, seed, violations); print every violation
   and end with the greppable "violations: N" line. Returns N, so the
   caller can write its manifest before exiting non-zero. *)
let report_audits audits =
  let total = List.fold_left (fun acc (_, _, vs) -> acc + List.length vs) 0 audits in
  List.iter
    (fun (label, seed, vs) ->
      List.iter
        (fun v ->
          Format.printf "%s seed %d: %a@." label seed Check.Invariant.pp_violation v)
        vs)
    audits;
  Format.printf "violations: %d@." total;
  total

let run_cmd =
  let action peers aus quorum years runs seed jobs capacity mttf interval_months kind
      coverage duration_days mix observe check manifest_out =
    set_jobs jobs;
    let handle = Experiments.Manifest.start ~command:"run" () in
    let scale = Scenario.sized ~peers ~aus ~quorum ~years ~runs ~seed in
    let cfg = config_of scale ~capacity ~mttf ~interval_months in
    let fault_cfg = Chaos.faults_config mix in
    let cfg =
      if Narses.Faults.is_none fault_cfg then cfg
      else { cfg with Lockss.Config.faults = Some fault_cfg }
    in
    (try Lockss.Config.validate cfg
     with Invalid_argument msg ->
       Printf.eprintf "invalid configuration: %s\n" msg;
       exit 2);
    let attack = attack_of kind ~coverage ~duration_days in
    let audits =
      match attack with
      | Scenario.No_attack ->
        let summaries, audits = Scenario.run_all ?observe ~check ~cfg scale attack in
        Format.printf "%a@." Lockss.Metrics.pp_summary (Scenario.mean_summaries summaries);
        List.map (fun (seed, vs) -> ("run", seed, vs)) audits
      | _ ->
        let c, audits = Scenario.compare_runs ?observe ~check ~cfg scale attack in
        Format.printf "baseline:@.%a@.@.under attack:@.%a@.@." Lockss.Metrics.pp_summary
          c.Scenario.baseline Lockss.Metrics.pp_summary c.Scenario.attack;
        Format.printf
          "access failure: %.3e@.delay ratio: %.2f@.coefficient of friction: %.2f@.cost \
           ratio: %.2f@."
          c.Scenario.access_failure c.Scenario.delay_ratio c.Scenario.friction
          c.Scenario.cost_ratio;
        audits
    in
    let violations = if check then report_audits audits else 0 in
    let fault_mix =
      if Narses.Faults.is_none fault_cfg then None else Some (Chaos.mix_json mix)
    in
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale) ?fault_mix ();
    if violations > 0 then exit 1
  in
  let term =
    Term.(
      const action $ peers $ aus $ quorum $ years $ runs $ seed $ jobs $ capacity $ mttf
      $ interval_months $ attack_kind $ coverage $ duration_days $ mix_term zero_mix
      $ observe_term $ check_flag $ manifest_out)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one simulated deployment, optionally under attack and/or injected \
          network faults.")
    term

(* -- soak command ------------------------------------------------------ *)

let soak_cmd =
  let seeds_count =
    Arg.(
      value
      & opt int 8
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of independent seeds to soak (seed, seed+1, ...).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the machine-readable soak report to $(docv).")
  in
  let action peers aus quorum years seed jobs kind coverage duration_days mix seeds_count
      json_out =
    set_jobs jobs;
    if seeds_count < 1 then begin
      Printf.eprintf "invalid --seeds: need at least one seed\n";
      exit 2
    end;
    let scale = Scenario.sized ~peers ~aus ~quorum ~years ~runs:1 ~seed in
    let attack = attack_of kind ~coverage ~duration_days in
    validate_mix mix;
    let seeds = List.init seeds_count (fun i -> seed + i) in
    let report = Chaos.soak ~scale ~attack ~seeds mix in
    Format.printf "%a" Chaos.pp_soak report;
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Chaos.soak_json report));
      output_char oc '\n';
      close_out oc);
    if not (Chaos.all_clean report) then exit 1
  in
  let term =
    Term.(
      const action $ peers $ aus $ quorum $ years $ seed $ jobs $ attack_kind $ coverage
      $ duration_days $ mix_term Chaos.default_mix $ seeds_count $ json_out)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak the protocol across many independent seeds under the full Byzantine \
          fault mix (loss, jitter, duplication, churn, corruption, replay, stale \
          delivery, stray injection) with the runtime invariant auditor attached and \
          an end-of-run leak audit, each seed paired with its fault-free run. A seed \
          fails on any handler exception, lack of progress, or violation: an auditor \
          invariant, a leaked timer/session, a stuck poll, pending-event growth, a \
          message or churn accounting mismatch, or access failure beyond an order of \
          magnitude of the fault-free run. Exit status 1 unless every seed is clean.")
    term

(* -- reproduce command ------------------------------------------------- *)

let figure_names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.pinned

let resolve_figure name =
  match Registry.find Registry.pinned name with
  | Ok entry -> entry
  | Error msg ->
    prerr_endline msg;
    exit 2

let reproduce_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET" ~doc:("One of: " ^ String.concat " " figure_names ^ "."))
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV to $(docv).")
  in
  let plot =
    Arg.(
      value
      & opt (some string) None
      & info [ "plot" ] ~docv:"DIR"
          ~doc:
            "Also write gnuplot .dat/.gp files into $(docv) for the figure and the \
             figures that share its sweep.")
  in
  let action target peers aus quorum years runs seed jobs csv_path plot_dir
      manifest_out =
    set_jobs jobs;
    let handle = Experiments.Manifest.start ~command:("reproduce " ^ target) () in
    let entry = resolve_figure target in
    let scale = Scenario.sized ~peers ~aus ~quorum ~years ~runs ~seed in
    (* One sweep execution feeds the printed table and the optional plot
       files: the registry's sweeps are shared lazies. *)
    let sweeps = Registry.sweeps scale in
    (match (plot_dir, entry.Registry.plot) with
    | None, _ -> ()
    | Some dir, Some write -> write ~dir sweeps
    | Some _, None -> Printf.eprintf "--plot: %s has no figure to plot\n" target);
    let report = entry.Registry.report sweeps in
    Registry.print report;
    Option.iter
      (fun path ->
        List.iter
          (function
            | Registry.Table table -> Repro_prelude.Table.save_csv table path
            | Registry.Line _ -> ())
          report)
      csv_path;
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale)
      ~targets:[ target ] ()
  in
  let term =
    Term.(
      const action $ target $ peers $ aus $ quorum $ years $ runs $ seed $ jobs $ csv
      $ plot $ manifest_out)
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Regenerate a figure or table from the paper's evaluation section, fanning \
          the sweep's independent runs out over --jobs worker domains; \
          $(b,diff-baseline) diffs it against its pinned golden baseline. (Per-run \
          tracing/metrics files are a $(b,run)-command feature.)")
    term

(* -- pin-baseline / diff-baseline commands ------------------------------ *)

let baseline_targets_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"TARGET"
        ~doc:
          ("Targets to pin/diff (" ^ String.concat " " figure_names
         ^ "); all of them when none is given."))

let baseline_targets = function
  | [] -> figure_names
  | targets -> List.map (fun t -> (resolve_figure t).Registry.name) targets

let pin_baseline_cmd =
  let tolerance =
    Arg.(
      value
      & opt float Obs.Baseline.default_tolerance_pct
      & info [ "tolerance-pct" ] ~docv:"PCT"
          ~doc:
            "Per-metric drift tolerance baked into the pin, as a percent of the \
             pinned value (default 0.01: seeded runs are deterministic, so the \
             allowance only absorbs float-formatting noise).")
  in
  let action targets peers aus quorum years runs seed jobs tolerance dir manifest_out =
    set_jobs jobs;
    let targets = baseline_targets targets in
    let handle = Experiments.Manifest.start ~command:"pin-baseline" () in
    let scale = Scenario.sized ~peers ~aus ~quorum ~years ~runs ~seed in
    let sweeps = Registry.sweeps scale in
    let provenance = Experiments.Manifest.provenance () in
    List.iter
      (fun target ->
        match Registry.capture ~tolerance_pct:tolerance sweeps target with
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
        | Ok captured ->
          let captured = { captured with Obs.Baseline.provenance } in
          Obs.Baseline.save ~dir captured;
          Printf.printf "pinned %s (%d metrics)\n"
            (Obs.Baseline.path ~dir target)
            (List.length captured.Obs.Baseline.metrics))
      targets;
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale) ~targets ()
  in
  let term =
    Term.(
      const action $ baseline_targets_arg $ peers $ aus $ quorum $ years $ runs $ seed
      $ jobs $ tolerance $ baseline_dir $ manifest_out)
  in
  Cmd.v
    (Cmd.info "pin-baseline"
       ~doc:
         "Run the paper-figure sweeps and pin their results as golden baseline \
          documents under --baseline-dir: per-figure series points and headline \
          metrics, each with a drift direction and tolerance, plus the scale \
          fingerprint and pin provenance. Commit the pins; $(b,diff-baseline) gates \
          against them.")
    term

let diff_baseline_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the delta reports as one JSON object instead of human-readable text.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Also write the machine-readable delta report to $(docv) — the artifact \
             the nightly reproduce gate uploads.")
  in
  let action targets peers aus quorum years runs seed jobs json_flag report_out dir
      manifest_out =
    set_jobs jobs;
    let targets = baseline_targets targets in
    let handle = Experiments.Manifest.start ~command:"diff-baseline" () in
    let scale = Scenario.sized ~peers ~aus ~quorum ~years ~runs ~seed in
    let sweeps = Registry.sweeps scale in
    (* Each target's fresh capture against its pin, or an error when
       the pin is unreadable or absent. *)
    let results =
      List.map
        (fun target ->
          ( target,
            match Obs.Baseline.load (Obs.Baseline.path ~dir target) with
            | Error msg ->
              Error
                (Printf.sprintf "%s — pin it first with: lockss_sim pin-baseline %s" msg
                   target)
            | Ok pinned ->
              Result.map
                (fun current -> Obs.Baseline.compare ~baseline:pinned ~current)
                (Registry.capture sweeps target) ))
        targets
    in
    let ok_overall =
      List.for_all
        (fun (_, result) ->
          match result with Ok report -> Obs.Baseline.ok report | Error _ -> false)
        results
    in
    let report_doc =
      Obs.Json.Assoc
        [
          ("ok", Obs.Json.Bool ok_overall);
          ("baseline_dir", Obs.Json.String dir);
          ( "targets",
            Obs.Json.List
              (List.map
                 (fun (target, result) ->
                   match result with
                   | Ok report -> Obs.Baseline.report_json report
                   | Error msg ->
                     Obs.Json.Assoc
                       [
                         ("experiment", Obs.Json.String target);
                         ("ok", Obs.Json.Bool false);
                         ("error", Obs.Json.String msg);
                       ])
                 results) );
        ]
    in
    if json_flag then print_endline (Obs.Json.to_string report_doc)
    else
      List.iter
        (fun (target, result) ->
          match result with
          | Error msg -> Printf.printf "baseline %s: FAILED — %s\n" target msg
          | Ok report -> Format.printf "%a@." Obs.Baseline.pp_report report)
        results;
    (match report_out with
    | None -> ()
    | Some path ->
      Experiments.Manifest.write ~path report_doc;
      Printf.printf "wrote delta report %s\n" path);
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale) ~targets ();
    if not ok_overall then exit 1
  in
  let term =
    Term.(
      const action $ baseline_targets_arg $ peers $ aus $ quorum $ years $ runs $ seed
      $ jobs $ json_flag $ report_out $ baseline_dir $ manifest_out)
  in
  Cmd.v
    (Cmd.info "diff-baseline"
       ~doc:
         "Re-run the paper-figure sweeps and diff every metric against the pinned \
          golden baselines: per-metric value/pin/delta/tolerance/verdict, config \
          fingerprint check, and missing/new metric detection. Exit status 1 on any \
          drift past tolerance — the simulator is deterministic for pinned seeds, so \
          drift means a code change moved the science and must be either fixed or \
          deliberately re-pinned.")
    term

(* -- check-trace command ----------------------------------------------- *)

let check_trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Trace file written with --trace-out, JSONL or binary.")
  in
  let action path =
    let by_kind = Hashtbl.create 16 in
    let events = ref 0 in
    let scratch = Buffer.create 512 in
    let check ~line record =
      let fail msg =
        Printf.eprintf "%s:%d: %s\n" path line msg;
        exit 1
      in
      match record with
      (* For JSONL the error is a bad line or a line that is not an
         event; for binary it can also be corrupt framing, a bad intern
         reference or trailing garbage — either way the file is
         invalid. *)
      | Error msg -> fail ("invalid record: " ^ msg)
      | Ok (time, event) ->
        incr events;
        let kind = Lockss.Trace.kind event in
        (* The typed event must survive re-serialization through the
           production JSONL encoder: compare events, not bytes, because
           the float writer may legitimately narrow 4320.0 to the
           literal 4320. *)
        Buffer.clear scratch;
        Lockss.Trace.write_jsonl scratch ~time event;
        (match
           Result.bind (Obs.Json.of_string (Buffer.contents scratch)) Lockss.Trace.of_json
         with
        | Error msg -> fail ("re-serialized event does not round-trip: " ^ msg)
        | Ok (time', event') ->
          if not (Float.equal time' time && event' = event) then
            fail ("event changed across JSON round-trip: " ^ kind));
        Hashtbl.replace by_kind kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind kind))
    in
    let format =
      try Lockss.Trace.iter_file path ~f:check
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" path msg;
        exit 2
    in
    Printf.printf "%s: %d events (%s), all parse and round-trip\n" path !events
      (Obs.Trace_file.format_to_string format);
    Hashtbl.fold (fun kind count acc -> (kind, count) :: acc) by_kind []
    |> List.sort compare
    |> List.iter (fun (kind, count) -> Printf.printf "  %-20s %d\n" kind count)
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:
         "Validate a --trace-out file in either encoding. JSONL: every line must \
          parse. Binary: the magic header, record framing and intern table must be \
          consistent. Either way every record must parse back into a typed event \
          (so every non-optional member, such as the (poller, au, poll_id) \
          correlation key of a poll-scoped event, is present) and survive a \
          re-serialization round-trip. Prints event counts by kind. Exit status 1 on \
          the first bad record.")
    Term.(const action $ file)

(* -- trace-convert command ---------------------------------------------- *)

let trace_convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Source trace file; encoding is sniffed, not guessed \
                                 from the extension.")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT"
          ~doc:
            "Destination trace file; a $(b,.ntrace) extension writes binary, anything \
             else JSONL.")
  in
  let action in_path out_path =
    let out_format = Obs.Trace_file.format_of_path out_path in
    let records = ref 0 in
    (* Records are decoded into typed events and re-encoded through the
       simulator's own sinks, which write every severity by default, so
       a converted trace has exactly the bytes the simulator writes in
       that encoding. *)
    let in_format =
      try
        Obs.Sink.with_file out_path (fun sink ->
            let write : Lockss.Trace.sink =
              match out_format with
              | Obs.Trace_file.Binary -> Lockss.Trace.binary_sink (Obs.Btrace.writer sink)
              | Obs.Trace_file.Jsonl -> Lockss.Trace.buffered_jsonl_sink sink
            in
            Lockss.Trace.iter_file in_path ~f:(fun ~line record ->
                match record with
                | Error msg ->
                  Printf.eprintf "%s:%d: invalid record: %s\n" in_path line msg;
                  exit 1
                | Ok (time, event) ->
                  incr records;
                  write ~time event))
      with Sys_error msg ->
        Printf.eprintf "cannot convert: %s\n" msg;
        exit 2
    in
    Printf.printf "%s (%s) -> %s (%s): %d records\n" in_path
      (Obs.Trace_file.format_to_string in_format)
      out_path
      (Obs.Trace_file.format_to_string out_format)
      !records
  in
  Cmd.v
    (Cmd.info "trace-convert"
       ~doc:
         "Convert a trace file between JSONL and the compact binary encoding \
          (selected by $(i,OUT)'s extension: $(b,.ntrace) is binary). Every record is \
          decoded into a typed event and re-encoded by the simulator's own trace \
          writer, so the output equals the trace the run would have written in that \
          encoding, and converting back yields the original file. Exit status 1 on a \
          corrupt input record.")
    Term.(const action $ input $ output)

(* -- trace-report command ----------------------------------------------- *)

let trace_report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Trace file written with --trace-out, JSONL or binary.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as one JSON object instead of human-readable text.")
  in
  let action path as_json =
    let analyzer = Check.Analyze.create () in
    (try ignore (Lockss.Trace.iter_file path ~f:(Check.Analyze.feed_record analyzer))
     with Sys_error msg ->
       Printf.eprintf "cannot open %s: %s\n" path msg;
       exit 2);
    if as_json then print_endline (Obs.Json.to_string (Check.Analyze.report_json analyzer))
    else Format.printf "%a@." Check.Analyze.pp_report analyzer;
    (* Corrupt records get a file:record diagnostic on stderr so the
       offending input is locatable even when the report went to a pipe. *)
    List.iter
      (fun anomaly ->
        match anomaly with
        | Check.Span.Malformed_line { line; error } ->
          Printf.eprintf "%s:%d: corrupt trace record: %s\n" path line error
        | _ -> ())
      (Check.Analyze.anomalies analyzer);
    if Check.Analyze.anomaly_count analyzer > 0 then begin
      Printf.eprintf
        "%s: %d anomalies — re-record the trace or inspect the records above\n" path
        (Check.Analyze.anomaly_count analyzer);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Analyze a --trace-out file, JSONL or binary, offline: reconstruct poll spans, \
          per-phase latency distributions and the per-peer effort ledger, and list \
          anomalies (orphaned events, abandoned polls, duplicate conclusions, poller \
          activity after conclusion, records that do not decode into events). Exit \
          status 1 when any anomaly is found — a fault-free baseline trace reports \
          none. Effort tables need a trace written at --trace-level debug.")
    Term.(const action $ file $ json_flag)

(* -- audit command ----------------------------------------------------- *)

let audit_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file written with --trace-out (--trace-level debug), JSONL or \
             binary.")
  in
  let audit_quorum =
    Arg.(
      value
      & opt int 5
      & info [ "quorum" ] ~docv:"N"
          ~doc:"Quorum the traced run used (the $(b,run) command's default is 5).")
  in
  let refractory =
    Arg.(
      value
      & opt duration_arg Lockss.Config.default.Lockss.Config.refractory_period
      & info [ "refractory" ] ~docv:"DUR"
          ~doc:"Refractory period the traced run used, e.g. $(b,1d).")
  in
  let decay =
    Arg.(
      value
      & opt duration_arg Lockss.Config.default.Lockss.Config.grade_decay_period
      & info [ "decay" ] ~docv:"DUR"
          ~doc:"Grade decay period the traced run used, e.g. $(b,6mo).")
  in
  let mutate =
    let ids = List.map (fun m -> (m.Check.Mutation.id, m.Check.Mutation.id)) Check.Mutation.all in
    Arg.(
      value
      & opt (some (enum ids)) None
      & info [ "mutate" ] ~docv:"ID"
          ~doc:
            (Printf.sprintf
               "Self-test: apply a seeded trace mutation before auditing, so the \
                matching invariant must fire. One of: %s."
               (String.concat ", " (List.map (fun m -> m.Check.Mutation.id) Check.Mutation.all))))
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the audit report as one JSON object instead of human-readable text.")
  in
  let action path quorum refractory decay mutate as_json =
    let params =
      {
        Check.Invariant.default_params with
        Check.Invariant.quorum;
        refractory_period = refractory;
        decay_period = decay;
      }
    in
    let auditor = Check.Auditor.create ~params () in
    let read f =
      try ignore (Lockss.Trace.iter_file path ~f)
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" path msg;
        exit 2
    in
    (match mutate with
    | None ->
      (* Stream the file as-is; every undecodable record becomes a
         trace-format violation. *)
      read (Check.Auditor.feed_record auditor)
    | Some id -> (
      let events = ref [] in
      read (fun ~line record ->
          match record with
          | Ok timed -> events := timed :: !events
          | Error msg ->
            Printf.eprintf "%s:%d: cannot mutate a malformed trace: %s\n" path line msg;
            exit 2);
      match Check.Mutation.apply ~params ~id (List.rev !events) with
      | Error msg ->
        Printf.eprintf "mutation %s not applicable: %s\n" id msg;
        exit 2
      | Ok mutated ->
        List.iter (fun (time, event) -> Check.Auditor.feed auditor ~time event) mutated));
    Check.Auditor.finish auditor;
    if as_json then print_endline (Obs.Json.to_string (Check.Auditor.report_json auditor))
    else Format.printf "%a@." Check.Auditor.pp_report auditor;
    if Check.Auditor.violation_count auditor > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Replay a --trace-out file, JSONL or binary, through the protocol-invariant \
          auditor: effort balance per poll, refractory self-clocking of admissions, \
          monotonic grade decay, inner-circle sampling and quorum rules. A record that \
          does not decode into an event is a trace-format violation. A fault-free trace \
          audits clean; exit status 1 when any invariant is violated. --mutate seeds a \
          known violation first, proving the matching check fires. Audit a trace \
          written at --trace-level debug, with --quorum/--refractory/--decay matching \
          the traced run's configuration.")
    Term.(const action $ file $ audit_quorum $ refractory $ decay $ mutate $ json_flag)

(* -- ablate, subversion, reciprocity and extensions commands ------------ *)

(* Every registry entry without a pin is its own subcommand, printing
   its report at the requested scale. *)
let experiment_cmd (entry : Registry.entry) =
  let action peers aus quorum years runs seed jobs =
    set_jobs jobs;
    let scale = Scenario.sized ~peers ~aus ~quorum ~years ~runs ~seed in
    Registry.print (entry.Registry.report (Registry.sweeps scale))
  in
  Cmd.v
    (Cmd.info entry.Registry.name ~doc:entry.Registry.title)
    Term.(const action $ peers $ aus $ quorum $ years $ runs $ seed $ jobs)

let () =
  let doc = "LOCKSS attrition-defense simulator (USENIX 2005 reproduction)" in
  let info = Cmd.info "lockss_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          ([
             run_cmd;
             reproduce_cmd;
             pin_baseline_cmd;
             diff_baseline_cmd;
             soak_cmd;
             check_trace_cmd;
             trace_convert_cmd;
             trace_report_cmd;
             audit_cmd;
           ]
          @ List.map experiment_cmd Registry.unpinned)))
