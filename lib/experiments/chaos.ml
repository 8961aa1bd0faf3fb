module Duration = Repro_prelude.Duration
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

(* Far above any legitimate run at these scales (the bench scale fires a
   few million events); only a genuine livelock can exhaust it. *)
let event_budget = 50_000_000

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
}

(* A population built with a fault config always carries its injector. *)
let injector population = Option.get (Lockss.Population.faults population)

let run_seed ?(auditor = Scenario.make_auditor) ?(attack = Scenario.No_attack) ~scale
    ~seed mix =
  let faults = faults_config mix in
  Faults.validate faults;
  let cfg = { (Scenario.config scale) with Lockss.Config.faults = Some faults } in
  let population = Scenario.build ~cfg ~seed attack in
  let trace = Lockss.Population.trace population in
  let auditor = auditor ~cfg () in
  Check.Auditor.attach auditor trace;
  let by_reason = Hashtbl.create 16 in
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
    (* An exception escaping a handler is what the harness exists to
       catch: keep it as the run's result instead of unwinding past the
       audits. *)
    try
      Lockss.Population.run ~max_events:event_budget population ~until:(horizon /. 2.);
      pending_mid := Engine.pending engine;
      Lockss.Population.run ~max_events:event_budget population ~until:horizon;
      None
    with exn -> Some exn
  in
  let summary = Lockss.Population.summary population in
  Check.Auditor.finish ~metrics:summary auditor;
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
    audit = Check.Auditor.violations auditor;
    leaks;
    rejected_by_reason =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_reason [] |> List.sort compare;
  }

(* -- The harness checks --------------------------------------------------

   Each takes a quiescent seed run and its fault-free pair, and returns
   its violations (none when the check holds). *)

let violation r ?peer ?au ?poll_id invariant detail =
  {
    Check.Invariant.invariant;
    severity = Check.Invariant.Error;
    time = Engine.now (Lockss.Population.engine r.population);
    peer;
    au;
    poll_id;
    detail;
  }

let stuck_poll r ~fault_free:_ =
  let ctx = Lockss.Population.ctx r.population in
  let now = Engine.now (Lockss.Population.engine r.population) in
  let limit = 2. *. ctx.Lockss.Peer.cfg.Lockss.Config.inter_poll_interval in
  Array.to_list ctx.Lockss.Peer.peers
  |> List.concat_map (fun (peer : Lockss.Peer.t) ->
         Array.to_list peer.Lockss.Peer.aus
         |> List.filter_map (fun (st : Lockss.Peer.au_state) ->
                match st.Lockss.Peer.current_poll with
                | Some poll when now -. poll.Lockss.Peer.started_at > limit ->
                  Some
                    (violation r ~peer:peer.Lockss.Peer.identity ~au:st.Lockss.Peer.au
                       ~poll_id:poll.Lockss.Peer.poll_id "stuck-poll"
                       (Printf.sprintf "in flight for %.1f d, limit %.1f d"
                          ((now -. poll.Lockss.Peer.started_at) /. Duration.day)
                          (limit /. Duration.day)))
                | _ -> None))

let pending_growth r ~fault_free:_ =
  (* Leaked (never-cancelled, never-fired) timers accumulate linearly
     with poll count, so the steady-state pending population must not
     grow materially between the run's midpoint and its end. *)
  let allowance = max 64 (r.pending_mid / 2) in
  if r.pending_end - r.pending_mid <= allowance then []
  else
    [
      violation r "pending-growth"
        (Printf.sprintf "pending events mid-run %d, end %d (allowed growth %d)"
           r.pending_mid r.pending_end allowance);
    ]

let message_conservation r ~fault_free:_ =
  let net = (Lockss.Population.ctx r.population).Lockss.Peer.net in
  let sent = Narses.Net.sent_count net in
  let dups = Faults.duplicated_count (injector r.population) in
  let injected = Narses.Net.injected_count net in
  let delivered = Narses.Net.delivered_count net in
  let dropped = Narses.Net.dropped_count net in
  (* Every copy a send produced (one per send, plus one per duplication,
     plus one per replay/stale re-injection from the delivery ring) is
     eventually delivered, dropped, or still scheduled in the engine. *)
  let in_flight = sent + dups + injected - delivered - dropped in
  if in_flight >= 0 && in_flight <= r.pending_end then []
  else
    [
      violation r "message-conservation"
        (Printf.sprintf
           "sent %d + dup %d + injected %d = delivered %d + dropped %d + in-flight %d \
            (pending %d)"
           sent dups injected delivered dropped in_flight r.pending_end);
    ]

let churn_accounting r ~fault_free:_ =
  let f = injector r.population in
  let crashes = Faults.crash_count f in
  let restarts = Faults.restart_count f in
  let down = Faults.down_count f in
  if crashes = restarts + down then []
  else
    [
      violation r "churn-accounting"
        (Printf.sprintf "crashes %d = restarts %d + still down %d" crashes restarts down);
    ]

let degradation r ~(fault_free : Lockss.Metrics.summary) =
  (* The protocol's retry and repair machinery should absorb moderate
     fault mixes: damage may rise versus the perfect-network paired run,
     but it must stay bounded — within an order of magnitude of the
     fault-free level and below an absolute ceiling. *)
  let base = fault_free.Lockss.Metrics.access_failure_probability in
  let afp = r.summary.Lockss.Metrics.access_failure_probability in
  let bound = Float.max 0.05 (10. *. Float.max base 0.005) in
  if afp <= bound then []
  else
    [
      violation r "degradation"
        (Printf.sprintf "access failure %.4f under faults vs %.4f fault-free (bound %.4f)"
           afp base bound);
    ]

let checks =
  [
    ("stuck-poll", stuck_poll);
    ("pending-growth", pending_growth);
    ("message-conservation", message_conservation);
    ("churn-accounting", churn_accounting);
    ("degradation", degradation);
  ]

(* -- The soak ------------------------------------------------------------ *)

type seed_report = {
  seed : int;
  polls_succeeded : int;
  rejected : int;
  rejected_by_reason : (string * int) list;
  injected : int;
  checked : string list;
  violations : Check.Invariant.violation list;
  handler_exn : string option;
}

type soak_report = { mix : mix; years : float; seeds : seed_report list }

let seed_clean s =
  s.handler_exn = None && s.violations = [] && s.polls_succeeded > 0

let all_clean r = List.for_all seed_clean r.seeds

let seed_report ~seed ~fault_free (r : seed_run) =
  let f = injector r.population in
  let checks = if Option.is_none r.handler_exn then checks else [] in
  {
    seed;
    polls_succeeded = r.summary.Lockss.Metrics.polls_succeeded;
    rejected = List.fold_left (fun acc (_, n) -> acc + n) 0 r.rejected_by_reason;
    rejected_by_reason = r.rejected_by_reason;
    injected =
      Faults.corrupted_count f + Faults.replayed_count f + Faults.stale_count f
      + Faults.stray_count f;
    checked = List.map fst checks;
    violations =
      r.audit @ r.leaks @ List.concat_map (fun (_, check) -> check r ~fault_free) checks;
    handler_exn = Option.map Printexc.to_string r.handler_exn;
  }

let soak ?(scale = Scenario.bench) ?(attack = Scenario.No_attack) ~seeds mix =
  (* Each seed is reduced to its report on its own worker, so no
     population outlives its run; the fault-free pair runs first, so
     the two populations are never alive together. *)
  let seeds =
    Runner.map
      (fun seed ->
        let fault_free =
          Scenario.run_one ~cfg:(Scenario.config scale) ~seed ~years:scale.Scenario.years
            attack
        in
        seed_report ~seed ~fault_free (run_seed ~attack ~scale ~seed mix))
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
