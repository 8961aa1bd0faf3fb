module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table
module Faults = Narses.Faults
module Engine = Narses.Engine

type mix = {
  loss : float;
  jitter : float;
  duplication : float;
  churn_per_day : float;
  downtime : float;
  corruption : float;
  replay : float;
  stale : float;
  stray : float;
  fault_seed : int;
}

let default_mix =
  {
    loss = 0.05;
    jitter = 0.5;
    duplication = 0.02;
    churn_per_day = 0.01;
    downtime = Duration.of_days 3.;
    corruption = 0.02;
    replay = 0.01;
    stale = 0.005;
    stray = 0.01;
    fault_seed = 7;
  }

let faults_config mix =
  {
    Faults.loss = mix.loss;
    jitter = mix.jitter;
    duplication = mix.duplication;
    churn_per_day = mix.churn_per_day;
    downtime = mix.downtime;
    corruption = mix.corruption;
    replay = mix.replay;
    stale = mix.stale;
    (* Stale messages resurface from well before any protocol timeout:
       three days matches the churn downtime scale. *)
    stale_delay = Duration.of_days 3.;
    stray = mix.stray;
    fault_seed = mix.fault_seed;
  }

let mix_json mix =
  let c = faults_config mix in
  Obs.Json.Assoc
    [
      ("loss", Obs.Json.Float c.Faults.loss);
      ("jitter", Obs.Json.Float c.Faults.jitter);
      ("duplication", Obs.Json.Float c.Faults.duplication);
      ("churn_per_day", Obs.Json.Float c.Faults.churn_per_day);
      ("downtime", Obs.Json.Float c.Faults.downtime);
      ("corruption", Obs.Json.Float c.Faults.corruption);
      ("replay", Obs.Json.Float c.Faults.replay);
      ("stale", Obs.Json.Float c.Faults.stale);
      ("stale_delay", Obs.Json.Float c.Faults.stale_delay);
      ("stray", Obs.Json.Float c.Faults.stray);
      ("fault_seed", Obs.Json.Int c.Faults.fault_seed);
    ]

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
  faulty : Lockss.Metrics.summary;
  fault_free : Lockss.Metrics.summary;
  comparison : Scenario.comparison;
  faults : fault_counts;
}

let all_green r = List.for_all (fun c -> c.ok) r.checks

(* Far above any legitimate run at these scales (the bench scale fires a
   few million events); only a genuine livelock can exhaust it. *)
let event_budget = 50_000_000

(* -- Invariants --------------------------------------------------------- *)

let check_no_stuck_poll population =
  let ctx = Lockss.Population.ctx population in
  let now = Engine.now (Lockss.Population.engine population) in
  let limit = 2. *. ctx.Lockss.Peer.cfg.Lockss.Config.inter_poll_interval in
  let stuck = ref [] in
  Array.iter
    (fun (peer : Lockss.Peer.t) ->
      Array.iter
        (fun (st : Lockss.Peer.au_state) ->
          match st.Lockss.Peer.current_poll with
          | Some poll when now -. poll.Lockss.Peer.started_at > limit ->
            stuck :=
              Printf.sprintf "peer %d au %d (age %.1f d)" peer.Lockss.Peer.identity
                st.Lockss.Peer.au
                ((now -. poll.Lockss.Peer.started_at) /. Duration.day)
              :: !stuck
          | _ -> ())
        peer.Lockss.Peer.aus)
    ctx.Lockss.Peer.peers;
  {
    name = "no stuck poll";
    ok = !stuck = [];
    detail =
      (match !stuck with
      | [] -> "every in-flight poll is younger than 2 inter-poll intervals"
      | l -> Printf.sprintf "%d polls stuck: %s" (List.length l) (String.concat "; " l));
  }

let check_pending_growth ~pending_mid ~pending_end =
  (* Leaked (never-cancelled, never-fired) timers accumulate linearly
     with poll count, so the steady-state pending population must not
     grow materially between the run's midpoint and its end. *)
  let allowance = max 64 (pending_mid / 2) in
  {
    name = "no leaked timeouts";
    ok = pending_end - pending_mid <= allowance;
    detail =
      Printf.sprintf "pending events mid-run %d, end %d (allowed growth %d)" pending_mid
        pending_end allowance;
  }

let check_conservation population ~dups ~pending_end =
  let ctx = Lockss.Population.ctx population in
  let net = ctx.Lockss.Peer.net in
  let sent = Narses.Net.sent_count net in
  let delivered = Narses.Net.delivered_count net in
  let dropped = Narses.Net.dropped_count net in
  let injected = Narses.Net.injected_count net in
  (* Every copy a send produced (one per send, plus one per duplication,
     plus one per replay/stale re-injection from the delivery ring) is
     eventually delivered, dropped, or still scheduled in the engine. *)
  let in_flight = sent + dups + injected - delivered - dropped in
  {
    name = "message conservation";
    ok = in_flight >= 0 && in_flight <= pending_end;
    detail =
      Printf.sprintf
        "sent %d + dup %d + injected %d = delivered %d + dropped %d + in-flight %d" sent
        dups injected delivered dropped in_flight;
  }

let check_churn_accounting injector =
  let crashes = Faults.crash_count injector in
  let restarts = Faults.restart_count injector in
  let down = Faults.down_count injector in
  {
    name = "churn accounting";
    ok = crashes = restarts + down;
    detail = Printf.sprintf "crashes %d = restarts %d + still down %d" crashes restarts down;
  }

let check_leak_audit leaks =
  {
    name = "leak audit";
    ok = leaks = [];
    detail =
      (match leaks with
      | [] -> "engine live timers reconcile with protocol owner state"
      | v :: _ ->
        Printf.sprintf "%d leak violations, first: %s" (List.length leaks)
          v.Check.Invariant.detail);
  }

let check_liveness (faulty : Lockss.Metrics.summary) =
  {
    name = "liveness";
    ok = faulty.Lockss.Metrics.polls_succeeded > 0;
    detail =
      Printf.sprintf "%d polls succeeded under faults" faulty.Lockss.Metrics.polls_succeeded;
  }

let check_degradation ~(fault_free : Lockss.Metrics.summary)
    ~(faulty : Lockss.Metrics.summary) =
  (* The protocol's retry and repair machinery should absorb moderate
     fault mixes: damage may rise versus the perfect-network paired run,
     but it must stay bounded — within an order of magnitude of the
     fault-free level and below an absolute ceiling. *)
  let base = fault_free.Lockss.Metrics.access_failure_probability in
  let afp = faulty.Lockss.Metrics.access_failure_probability in
  let bound = Float.max 0.05 (10. *. Float.max base 0.005) in
  {
    name = "bounded degradation";
    ok = afp <= bound;
    detail =
      Printf.sprintf "access failure %.4f under faults vs %.4f fault-free (bound %.4f)"
        afp base bound;
  }

(* -- One faulted seed ------------------------------------------------- *)

type seed_run = {
  population : Lockss.Population.t;
  summary : Lockss.Metrics.summary;
  pending_mid : int;
  pending_end : int;
  handler_exn : exn option;
  audit : Check.Invariant.violation list;
  leaks : Check.Invariant.violation list;
  rejected_by_reason : (string * int) list;
  faults : fault_counts;
}

let fault_counts f =
  {
    dropped = Faults.dropped_count f;
    duplicated = Faults.duplicated_count f;
    delayed = Faults.delayed_count f;
    corrupted = Faults.corrupted_count f;
    replayed = Faults.replayed_count f;
    stale = Faults.stale_count f;
    stray = Faults.stray_count f;
    crashes = Faults.crash_count f;
    restarts = Faults.restart_count f;
  }

(* A population built with a fault config always carries its injector. *)
let injector population = Option.get (Lockss.Population.faults population)

let run_seed ?check ?(attack = Scenario.No_attack) ~scale ~seed mix =
  let faults = faults_config mix in
  Faults.validate faults;
  let cfg = { (Scenario.config scale) with Lockss.Config.faults = Some faults } in
  let population = Scenario.build ~cfg ~seed attack in
  let trace = Lockss.Population.trace population in
  (* Only a checked run subscribes the auditor and the Debug-level
     rejection tally, so an unchecked run builds no Debug event at all
     when nothing else subscribes. *)
  let auditor =
    Option.map
      (fun make ->
        let auditor = make ~cfg () in
        Check.Auditor.attach auditor trace;
        auditor)
      check
  in
  let by_reason = Hashtbl.create 16 in
  if Option.is_some check then
    Lockss.Trace.subscribe ~interest:Lockss.Trace.Debug trace (fun ~time:_ event ->
        match event with
        | Lockss.Trace.Message_rejected { reason; _ } ->
          let key = Lockss.Trace.reject_reason_to_string reason in
          Hashtbl.replace by_reason key
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_reason key))
        | _ -> ());
  let engine = Lockss.Population.engine population in
  let horizon = Duration.of_years scale.Scenario.years in
  let pending_mid = ref 0 in
  let handler_exn =
    (* An exception escaping a handler is what the fault harnesses exist
       to catch: keep it as the run's result instead of unwinding past
       the audits. *)
    try
      Lockss.Population.run ~max_events:event_budget population ~until:(horizon /. 2.);
      pending_mid := Engine.pending engine;
      Lockss.Population.run ~max_events:event_budget population ~until:horizon;
      None
    with exn -> Some exn
  in
  let summary = Lockss.Population.summary population in
  let audit =
    match auditor with
    | None -> []
    | Some auditor ->
      Check.Auditor.finish ~metrics:summary auditor;
      Check.Auditor.violations auditor
  in
  let leaks =
    (* A crashed run leaves arbitrary mid-flight state; the exception is
       already the failure, so only quiescent runs are leak-audited. *)
    if Option.is_none handler_exn then
      Check.Leak.audit ~engine ~ctx:(Lockss.Population.ctx population)
    else []
  in
  {
    population;
    summary;
    pending_mid = !pending_mid;
    pending_end = Engine.pending engine;
    handler_exn;
    audit;
    leaks;
    rejected_by_reason =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_reason [] |> List.sort compare;
    faults = fault_counts (injector population);
  }

(* -- The paired chaos run ----------------------------------------------- *)

let run ?(scale = Scenario.bench) ?(attack = Scenario.No_attack) mix =
  (* The faulted run and its fault-free pair share nothing (each builds
     its own population from the seed), so they run on two domains when
     available; results are deterministic either way. *)
  let r, fault_free =
    Runner.both
      (fun () -> run_seed ~attack ~scale ~seed:scale.Scenario.seed mix)
      (fun () ->
        Scenario.run_one
          ~cfg:{ (Scenario.config scale) with Lockss.Config.faults = None }
          ~seed:scale.Scenario.seed ~years:scale.Scenario.years attack)
  in
  Option.iter raise r.handler_exn;
  let faulty = r.summary in
  let checks =
    [
      check_liveness faulty;
      check_no_stuck_poll r.population;
      check_pending_growth ~pending_mid:r.pending_mid ~pending_end:r.pending_end;
      check_conservation r.population ~dups:r.faults.duplicated
        ~pending_end:r.pending_end;
      check_churn_accounting (injector r.population);
      check_leak_audit r.leaks;
      check_degradation ~fault_free ~faulty;
    ]
  in
  {
    checks;
    faulty;
    fault_free;
    comparison = Scenario.ratios ~baseline:fault_free ~attack:faulty;
    faults = r.faults;
  }

let pp_report ppf (r : report) =
  let f = r.faults in
  Format.fprintf ppf
    "Chaos run: %d faults injected (%d drops, %d dups, %d delays, %d corruptions, %d \
     replays, %d stales, %d strays), %d crashes, %d restarts@."
    (f.dropped + f.duplicated + f.delayed + f.corrupted + f.replayed + f.stale + f.stray)
    f.dropped f.duplicated f.delayed f.corrupted f.replayed f.stale f.stray f.crashes
    f.restarts;
  Format.fprintf ppf
    "  polls: %d ok / %d inquorate / %d alarmed under faults; %d ok fault-free@."
    r.faulty.Lockss.Metrics.polls_succeeded r.faulty.Lockss.Metrics.polls_inquorate
    r.faulty.Lockss.Metrics.polls_alarmed r.fault_free.Lockss.Metrics.polls_succeeded;
  Format.fprintf ppf "  delay ratio %.2f, friction %.2f@." r.comparison.Scenario.delay_ratio
    r.comparison.Scenario.friction;
  List.iter
    (fun c ->
      Format.fprintf ppf "  [%s] %-20s %s@." (if c.ok then "PASS" else "FAIL") c.name
        c.detail)
    r.checks;
  Format.fprintf ppf "  %s@."
    (if all_green r then "all invariants green" else "INVARIANT VIOLATION")

(* -- The multi-seed soak ------------------------------------------------ *)

type seed_report = {
  seed : int;
  polls_succeeded : int;
  rejected : int;
  rejected_by_reason : (string * int) list;
  injected : int;
  violations : Check.Invariant.violation list;
  handler_exn : string option;
}

type soak_report = { mix : mix; years : float; seeds : seed_report list }

let seed_clean s =
  s.handler_exn = None && s.violations = [] && s.polls_succeeded > 0

let all_clean r = List.for_all seed_clean r.seeds

let seed_report ~seed (r : seed_run) =
  {
    seed;
    polls_succeeded = r.summary.Lockss.Metrics.polls_succeeded;
    rejected = List.fold_left (fun acc (_, n) -> acc + n) 0 r.rejected_by_reason;
    rejected_by_reason = r.rejected_by_reason;
    injected = r.faults.corrupted + r.faults.replayed + r.faults.stale + r.faults.stray;
    violations = r.audit @ r.leaks;
    handler_exn = Option.map Printexc.to_string r.handler_exn;
  }

let soak ?(scale = Scenario.bench) ?attack ~seeds mix =
  (* Each seed is reduced to its report on its own worker, so no
     population outlives its run. *)
  let seeds =
    Runner.map
      (fun seed ->
        seed_report ~seed
          (run_seed ~check:Scenario.make_auditor ?attack ~scale ~seed mix))
      seeds
  in
  { mix; years = scale.Scenario.years; seeds }

let pp_soak ppf r =
  Format.fprintf ppf "Soak: %d seeds x %.2f years under the full fault mix@."
    (List.length r.seeds) r.years;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  seed %-4d %s: %d polls ok, %d faults injected, %d messages rejected (%s)@."
        s.seed
        (if seed_clean s then "clean" else "DIRTY")
        s.polls_succeeded s.injected s.rejected
        (if s.rejected_by_reason = [] then "-"
         else
           String.concat ", "
             (List.map
                (fun (reason, n) -> Printf.sprintf "%s %d" reason n)
                s.rejected_by_reason));
      (match s.handler_exn with
      | Some exn -> Format.fprintf ppf "    handler exception: %s@." exn
      | None -> ());
      List.iter
        (fun v -> Format.fprintf ppf "    %a@." Check.Invariant.pp_violation v)
        s.violations)
    r.seeds;
  let dirty = List.filter (fun s -> not (seed_clean s)) r.seeds in
  Format.fprintf ppf "soak verdict: %s@."
    (if dirty = [] then "all seeds clean"
     else
       Printf.sprintf "%d/%d seeds dirty" (List.length dirty) (List.length r.seeds))

let soak_json r =
  let seed_json s =
    Obs.Json.Assoc
      [
        ("seed", Obs.Json.Int s.seed);
        ("clean", Obs.Json.Bool (seed_clean s));
        ("polls_succeeded", Obs.Json.Int s.polls_succeeded);
        ("injected", Obs.Json.Int s.injected);
        ("rejected", Obs.Json.Int s.rejected);
        ( "rejected_by_reason",
          Obs.Json.Assoc
            (List.map (fun (k, v) -> (k, Obs.Json.Int v)) s.rejected_by_reason) );
        ( "handler_exn",
          match s.handler_exn with
          | None -> Obs.Json.Null
          | Some exn -> Obs.Json.String exn );
        ( "violations",
          Obs.Json.List (List.map Check.Invariant.violation_to_json s.violations) );
      ]
  in
  Obs.Json.Assoc
    [
      ("years", Obs.Json.Float r.years);
      ("seeds", Obs.Json.List (List.map seed_json r.seeds));
      ("clean", Obs.Json.Bool (all_clean r));
    ]

(* -- Attack-under-faults ablation --------------------------------------- *)

let stoppage_attack =
  let interval = Lockss.Config.default.Lockss.Config.inter_poll_interval in
  Scenario.Pipe_stoppage
    { coverage = 0.4; duration = 3. *. interval; recuperation = interval }

let ablation ?(scale = Scenario.bench) mix =
  let cfg = Scenario.config scale in
  let faulty_cfg = { cfg with Lockss.Config.faults = Some (faults_config mix) } in
  let cells =
    [
      ("fault-free", cfg, Scenario.No_attack);
      ("faults only", faulty_cfg, Scenario.No_attack);
      ("stoppage only", cfg, stoppage_attack);
      ("stoppage + faults", faulty_cfg, stoppage_attack);
    ]
  in
  let rows =
    Runner.map
      (fun (label, run_cfg, attack) ->
        let s =
          Scenario.run_one ~cfg:run_cfg ~seed:scale.Scenario.seed
            ~years:scale.Scenario.years attack
        in
        [
          label;
          Printf.sprintf "%.4f" s.Lockss.Metrics.access_failure_probability;
          string_of_int s.Lockss.Metrics.polls_succeeded;
          string_of_int s.Lockss.Metrics.polls_inquorate;
          string_of_int s.Lockss.Metrics.polls_alarmed;
        ])
      cells
  in
  let table =
    Table.create [ "condition"; "access failure"; "polls ok"; "inquorate"; "alarmed" ]
  in
  List.iter (Table.add_row table) rows;
  table
