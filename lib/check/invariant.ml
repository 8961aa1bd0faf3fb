module Trace = Lockss.Trace
module Grade = Lockss.Grade
module Config = Lockss.Config
module Metrics = Lockss.Metrics
module Duration = Repro_prelude.Duration

type severity = Warning | Error

let severity_to_string = function Warning -> "warning" | Error -> "error"

type params = {
  refractory_period : float;
  quorum : int;
  decay_period : float;
  admission_control : bool;
  introductions : bool;
  effort_balancing : bool;
  tolerance : float;
}

let default_params =
  {
    refractory_period = Config.default.Config.refractory_period;
    quorum = Config.default.Config.quorum;
    decay_period = Config.default.Config.grade_decay_period;
    admission_control = Config.default.Config.admission_control_enabled;
    introductions = Config.default.Config.introductions_enabled;
    effort_balancing = Config.default.Config.effort_balancing_enabled;
    tolerance = 1e-6;
  }

let params_of_config (cfg : Config.t) =
  {
    refractory_period = cfg.Config.refractory_period;
    quorum = cfg.Config.quorum;
    decay_period = cfg.Config.grade_decay_period;
    admission_control = cfg.Config.admission_control_enabled;
    introductions = cfg.Config.introductions_enabled;
    effort_balancing = cfg.Config.effort_balancing_enabled;
    tolerance = 1e-6;
  }

type violation = {
  invariant : string;
  severity : severity;
  time : float;
  peer : Lockss.Ids.Identity.t option;
  au : Lockss.Ids.Au_id.t option;
  poll_id : int option;
  detail : string;
}

let violation_to_json v =
  let opt name = function None -> [] | Some i -> [ (name, Obs.Json.Int i) ] in
  Obs.Json.Assoc
    ([
       ("invariant", Obs.Json.String v.invariant);
       ("severity", Obs.Json.String (severity_to_string v.severity));
       ("t", Obs.Json.Float v.time);
     ]
    @ opt "peer" v.peer @ opt "au" v.au @ opt "poll_id" v.poll_id
    @ [ ("detail", Obs.Json.String v.detail) ])

let pp_violation ppf v =
  Format.fprintf ppf "[%a] %s (%s)" Duration.pp v.time v.invariant
    (severity_to_string v.severity);
  (match v.poll_id with Some id -> Format.fprintf ppf " poll %d" id | None -> ());
  (match v.peer with Some p -> Format.fprintf ppf " peer %d" p | None -> ());
  (match v.au with Some a -> Format.fprintf ppf " au %d" a | None -> ());
  Format.fprintf ppf ": %s" v.detail

type context = { ledger : Ledger.t; metrics : Metrics.summary option }

type instance = {
  on_event : time:float -> Trace.event -> unit;
  at_end : time:float -> context -> unit;
}

type t = {
  id : string;
  severity : severity;
  doc : string;
  enabled : params -> bool;
  instantiate : params -> emit:(violation -> unit) -> instance;
}

let nop_end ~time:_ _ = ()

(* -- effort-balance ------------------------------------------------------

   The paper's effort-sizing rule: at every point where a voter has
   received a provable-effort proof from a poller (the introductory
   receipt, the remaining receipt) and when it commits its own vote, the
   requester's proven investment must cover everything the supplier has
   spent on that poll so far. Keyed per (voter, poller, au, poll_id);
   only loyal Admission/Voting charges count (Repair serving happens
   after the vote and is compensated by the repair economics, not by
   solicitation proofs). *)

let effort_balance =
  {
    id = "effort-balance";
    severity = Error;
    doc =
      "requester-invests-more: at each proof receipt and at vote time, effort \
       proven by the poller covers the voter's spend on that poll";
    enabled = (fun p -> p.effort_balancing);
    instantiate =
      (fun params ~emit ->
        let accounts : (int * int * int * int, float ref * float ref) Hashtbl.t =
          Hashtbl.create 256
        in
        let account key =
          match Hashtbl.find_opt accounts key with
          | Some a -> a
          | None ->
            let a = (ref 0., ref 0.) in
            Hashtbl.replace accounts key a;
            a
        in
        let check ~time ((voter, poller, au, poll_id) as key) =
          let charged, received = account key in
          if !charged -. !received > params.tolerance *. Float.max 1. !received then
            emit
              {
                invariant = "effort-balance";
                severity = Error;
                time;
                peer = Some voter;
                au = Some au;
                poll_id = Some poll_id;
                detail =
                  Printf.sprintf
                    "voter %d spent %.3fs on poll %d of poller %d but only %.3fs was \
                     proven to it"
                    voter !charged poll_id poller !received;
              }
        in
        let on_event ~time event =
          match event with
          | Trace.Effort_charged
              {
                peer;
                role = Trace.Loyal;
                phase = Trace.Admission | Trace.Voting;
                poller = Some poller;
                au = Some au;
                poll_id = Some poll_id;
                seconds;
              }
            when peer <> poller ->
            let charged, _ = account (peer, poller, au, poll_id) in
            charged := !charged +. seconds
          | Trace.Effort_received
              { peer; from_; phase = Trace.Solicitation; au; poll_id; seconds } ->
            let key = (peer, from_, au, poll_id) in
            let _, received = account key in
            received := !received +. seconds;
            check ~time key
          | Trace.Vote_sent { voter; poller; au; poll_id } ->
            check ~time (voter, poller, au, poll_id)
          | _ -> ()
        in
        { on_event; at_end = nop_end });
  }

(* -- refractory ----------------------------------------------------------

   Self-clocked admission: a supplier admits at most one invitation —
   introduced, known or unknown — per refractory period. The check keys
   on (voter, au) because the admission filter is per peer per AU. *)

let refractory =
  {
    id = "refractory";
    severity = Error;
    doc =
      "self-clocking: no two admissions on one supplier (per AU) closer than the \
       refractory period, introductions included";
    enabled = (fun p -> p.admission_control);
    instantiate =
      (fun params ~emit ->
        let last : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
        let eps = 1e-6 *. params.refractory_period in
        let on_event ~time event =
          match event with
          | Trace.Invitation_admitted { voter; au; poll_id; path; _ } ->
            (match Hashtbl.find_opt last (voter, au) with
            | Some prev when time -. prev < params.refractory_period -. eps ->
              emit
                {
                  invariant = "refractory";
                  severity = Error;
                  time;
                  peer = Some voter;
                  au = Some au;
                  poll_id;
                  detail =
                    Printf.sprintf
                      "admissions %s apart (< refractory %s, path %s)"
                      (Format.asprintf "%a" Duration.pp (time -. prev))
                      (Format.asprintf "%a" Duration.pp params.refractory_period)
                      (Trace.admission_path_to_string path);
                }
            | _ -> ());
            Hashtbl.replace last (voter, au) time
          | _ -> ()
        in
        { on_event; at_end = nop_end });
  }

(* -- grade-decay ---------------------------------------------------------

   Between touches of a known-peers entry, the effective grade may only
   decay toward Debt. Observations are the grades the admission filter
   reports ([Invitation_admitted] with a [known_*] path, on the shared
   per-(owner, au) table). Any traced event that legitimately rewrites
   the entry — the owner concluding a poll in which the subject voted
   (raise), or the owner sending the subject a vote (lower + clock
   reset) — resets the model baseline for that key, so the check is
   conservative: it only fires when an un-touched entry climbs. *)

let grade_decay =
  {
    id = "grade-decay";
    severity = Error;
    doc =
      "grades decay monotonically toward debt between touches of a known-peers \
       entry";
    enabled = (fun _ -> true);
    instantiate =
      (fun params ~emit ->
        (* (owner, au, subject) -> last untouched observation *)
        let obs : (int * int * int, float * Grade.t) Hashtbl.t = Hashtbl.create 256 in
        (* (poller, au, poll_id) -> voters seen, for conclude raises *)
        let votes : (int * int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
        let max_steps = 8 in
        let steps_between t0 t1 =
          if t1 <= t0 then 0
          else begin
            let raw = (t1 -. t0) /. params.decay_period in
            if raw >= float_of_int max_steps then max_steps else int_of_float raw
          end
        in
        let grade_of_path = function
          | Trace.Admitted_known g -> Some g
          | Trace.Admitted_introduced | Trace.Admitted_unknown -> None
        in
        let on_event ~time event =
          match event with
          | Trace.Invitation_admitted { voter; claimed; au; path; poll_id } ->
            (match grade_of_path path with
            | None -> ()
            | Some g ->
              let key = (voter, au, claimed) in
              (match Hashtbl.find_opt obs key with
              | Some (t0, g0) ->
                let allowed = Grade.decayed g0 ~steps:(steps_between t0 time) in
                if Grade.rank g > Grade.rank allowed then
                  emit
                    {
                      invariant = "grade-decay";
                      severity = Error;
                      time;
                      peer = Some voter;
                      au = Some au;
                      poll_id;
                      detail =
                        Printf.sprintf
                          "peer %d's grade at supplier %d rose from %s (at %s) to %s \
                           without a touch"
                          claimed voter
                          (Format.asprintf "%a" Grade.pp g0)
                          (Format.asprintf "%a" Duration.pp t0)
                          (Format.asprintf "%a" Grade.pp g);
                    }
              | None -> ());
              Hashtbl.replace obs key (time, g))
          | Trace.Vote_sent { voter; poller; au; poll_id } ->
            (* Join for later conclude raises at the poller... *)
            let vs =
              match Hashtbl.find_opt votes (poller, au, poll_id) with
              | Some vs -> vs
              | None ->
                let vs = ref [] in
                Hashtbl.replace votes (poller, au, poll_id) vs;
                vs
            in
            vs := voter :: !vs;
            (* ...and the voter lowers the poller in its own table now. *)
            Hashtbl.remove obs (voter, au, poller)
          | Trace.Poll_concluded { poller; au; poll_id; _ } -> (
            match Hashtbl.find_opt votes (poller, au, poll_id) with
            | None -> ()
            | Some vs ->
              List.iter (fun v -> Hashtbl.remove obs (poller, au, v)) !vs;
              Hashtbl.remove votes (poller, au, poll_id))
          | _ -> ()
        in
        { on_event; at_end = nop_end });
  }

(* -- sampling ------------------------------------------------------------

   The inner circle is a uniform sample of the poller's reference list:
   every invitee must come from the reference list, never the poller
   itself, and without duplicates. *)

let sampling =
  {
    id = "sampling";
    severity = Error;
    doc =
      "the invited inner circle is drawn from the reference list, excludes the \
       poller and holds no duplicates";
    enabled = (fun _ -> true);
    instantiate =
      (fun _params ~emit ->
        let on_event ~time event =
          match event with
          | Trace.Poll_sampled { poller; au; poll_id; invited; reference } ->
            let fire detail =
              emit
                {
                  invariant = "sampling";
                  severity = Error;
                  time;
                  peer = Some poller;
                  au = Some au;
                  poll_id = Some poll_id;
                  detail;
                }
            in
            let stray =
              List.filter (fun id -> not (List.mem id reference)) invited
            in
            (match stray with
            | [] -> ()
            | id :: _ ->
              fire
                (Printf.sprintf "invitee %d is not on the poller's reference list" id));
            if List.mem poller invited then
              fire (Printf.sprintf "poller %d sampled itself" poller);
            let rec dup = function
              | [] -> None
              | x :: rest -> if List.mem x rest then Some x else dup rest
            in
            (match dup invited with
            | Some id -> fire (Printf.sprintf "invitee %d sampled twice" id)
            | None -> ())
          | _ -> ()
        in
        { on_event; at_end = nop_end });
  }

(* -- quorum --------------------------------------------------------------

   A poll may only reach a content conclusion (success or alarm) if at
   least [quorum] of its sampled inner circle actually voted. Votes are
   collected from the trace, so lost messages can only make this an
   over-count of what the poller saw — the check never fires on a poll
   the poller itself counted as quorate. Polls without a recorded sample
   (truncated trace) are skipped. *)

let quorum =
  {
    id = "quorum";
    severity = Error;
    doc = "content conclusions (success/alarm) only at or above quorum inner votes";
    enabled = (fun _ -> true);
    instantiate =
      (fun params ~emit ->
        let sampled : (int * int * int, int list) Hashtbl.t = Hashtbl.create 64 in
        let votes : (int * int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
        let on_event ~time event =
          match event with
          | Trace.Poll_sampled { poller; au; poll_id; invited; _ } ->
            Hashtbl.replace sampled (poller, au, poll_id) invited
          | Trace.Vote_sent { voter; poller; au; poll_id } ->
            let vs =
              match Hashtbl.find_opt votes (poller, au, poll_id) with
              | Some vs -> vs
              | None ->
                let vs = ref [] in
                Hashtbl.replace votes (poller, au, poll_id) vs;
                vs
            in
            if not (List.mem voter !vs) then vs := voter :: !vs
          | Trace.Poll_concluded { poller; au; poll_id; outcome } ->
            let key = (poller, au, poll_id) in
            (match (outcome, Hashtbl.find_opt sampled key) with
            | (Metrics.Success | Metrics.Alarmed), Some invited ->
              let inner_votes =
                match Hashtbl.find_opt votes key with
                | None -> 0
                | Some vs -> List.length (List.filter (fun v -> List.mem v invited) !vs)
              in
              if inner_votes < params.quorum then
                emit
                  {
                    invariant = "quorum";
                    severity = Error;
                    time;
                    peer = Some poller;
                    au = Some au;
                    poll_id = Some poll_id;
                    detail =
                      Printf.sprintf
                        "poll concluded %s with %d inner votes (quorum %d)"
                        (Trace.poll_outcome_to_string outcome)
                        inner_votes params.quorum;
                  }
            | _ -> ());
            Hashtbl.remove sampled key;
            Hashtbl.remove votes key
          | _ -> ()
        in
        { on_event; at_end = nop_end });
  }

(* -- conservation --------------------------------------------------------

   The trace-derived ledger and the simulator's metrics aggregates are
   fed from the same instrumentation points, so their totals must agree
   exactly. Only checkable when a metrics summary is available (live
   runs); offline audits of a bare trace skip it. *)

let conservation =
  {
    id = "conservation";
    severity = Error;
    doc = "trace-derived ledger totals match the metrics aggregates";
    enabled = (fun _ -> true);
    instantiate =
      (fun _params ~emit ->
        let at_end ~time ctx =
          match ctx.metrics with
          | None -> ()
          | Some s ->
            let r = Ledger.reconcile ctx.ledger s in
            if not r.Ledger.ok then
              emit
                {
                  invariant = "conservation";
                  severity = Error;
                  time;
                  peer = None;
                  au = None;
                  poll_id = None;
                  detail = Format.asprintf "%a" Ledger.pp_reconciliation r;
                }
        in
        { on_event = (fun ~time:_ _ -> ()); at_end });
  }

let registry =
  [ effort_balance; refractory; grade_decay; sampling; quorum; conservation ]

let find id = List.find_opt (fun inv -> String.equal inv.id id) registry
