module Json = Obs.Json

(* -- Tokens ------------------------------------------------------------- *)

(* One static string of the encoding (an enum spelling, an event kind, a
   severity or a member name) rendered once for every codec: its quoted
   JSON literal and its interned binary atom. *)
type token = { name : string; quoted : string; atom : Obs.Btrace.atom }

let token name = { name; quoted = "\"" ^ name ^ "\""; atom = Obs.Btrace.atom name }

(* An enum's token table, in declaration order: the one place its
   spellings are written. [equal] finds a value's row; physical equality
   decides for constant constructors and costs no runtime call. *)
type 'a enum = { equal : 'a -> 'a -> bool; tokens : ('a * token) list }

let enum ?(equal = ( == )) table =
  { equal; tokens = List.map (fun (v, name) -> (v, token name)) table }

(* Top-level recursion, not [List.find]: a closure capturing [v] would
   allocate on every encoded event. *)
let rec find equal v = function
  | (v', t) :: rest -> if equal v' v then t else find equal v rest
  | [] -> invalid_arg "Trace.token_of: value missing from its table"

let token_of e v = find e.equal v e.tokens
let to_string e v = (token_of e v).name

let of_string e s =
  List.find_map (fun (v, t) -> if String.equal t.name s then Some v else None) e.tokens

(* -- Effort taxonomy ---------------------------------------------------- *)

type effort_role = Loyal | Adversary

let roles = enum [ (Loyal, "loyal"); (Adversary, "adversary") ]
let effort_role_to_string = to_string roles
let effort_role_of_string = of_string roles

type effort_phase = Admission | Solicitation | Voting | Evaluation | Repair

let phases =
  enum
    [
      (Admission, "admission");
      (Solicitation, "solicitation");
      (Voting, "voting");
      (Evaluation, "evaluation");
      (Repair, "repair");
    ]

let effort_phase_to_string = to_string phases
let effort_phase_of_string = of_string phases
let all_effort_phases = List.map fst phases.tokens

(* -- Admission paths ---------------------------------------------------- *)

type admission_path =
  | Admitted_introduced
  | Admitted_unknown
  | Admitted_known of Grade.t

let admission_path_of_decision = function
  | `Introduced -> Admitted_introduced
  | `Unknown -> Admitted_unknown
  | `Known g -> Admitted_known g

(* A known peer's path carries its grade: compared structurally. *)
let admission_paths =
  enum ~equal:( = )
    [
      (Admitted_introduced, "introduced");
      (Admitted_unknown, "unknown");
      (Admitted_known Grade.Debt, "known_debt");
      (Admitted_known Grade.Even, "known_even");
      (Admitted_known Grade.Credit, "known_credit");
    ]

let admission_path_to_string = to_string admission_paths
let admission_path_of_string = of_string admission_paths

(* -- Reject reasons ------------------------------------------------------ *)

type reject_reason =
  | Bad_au
  | Not_held
  | Unknown_poll
  | Uninvited
  | Wrong_state
  | Wrong_phase
  | Unknown_session
  | Stale_closed
  | Bad_block

let reject_reasons =
  enum
    [
      (Bad_au, "bad_au");
      (Not_held, "not_held");
      (Unknown_poll, "unknown_poll");
      (Uninvited, "uninvited");
      (Wrong_state, "wrong_state");
      (Wrong_phase, "wrong_phase");
      (Unknown_session, "unknown_session");
      (Stale_closed, "stale_closed");
      (Bad_block, "bad_block");
    ]

let reject_reason_to_string = to_string reject_reasons
let reject_reason_of_string = of_string reject_reasons
let all_reject_reasons = List.map fst reject_reasons.tokens

type event =
  | Poll_started of { poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int; inner_candidates : int }
  | Solicitation_sent of {
      poller : Ids.Identity.t;
      voter : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      attempt : int;
    }
  | Invitation_dropped of {
      voter : Ids.Identity.t;
      claimed : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      reason : Admission.drop_reason;
    }
  | Invitation_admitted of {
      voter : Ids.Identity.t;
      claimed : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int option;  (** [None] for unsolicited (garbage) invitations *)
      path : admission_path;
    }
  | Invitation_refused of {
      voter : Ids.Identity.t;
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
    }
  | Invitation_accepted of {
      voter : Ids.Identity.t;
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
    }
  | Vote_sent of { voter : Ids.Identity.t; poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int }
  | Poll_sampled of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      invited : Ids.Identity.t list;
      reference : Ids.Identity.t list;
    }
  | Evaluation_started of { poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int; votes : int }
  | Repair_applied of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      block : int;
      version : int;
      clean : bool;
    }
  | Poll_concluded of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      outcome : Metrics.poll_outcome;
    }
  | Effort_charged of {
      peer : Ids.Identity.t;
      role : effort_role;
      phase : effort_phase;
      poller : Ids.Identity.t option;
      au : Ids.Au_id.t option;
      poll_id : int option;
      seconds : float;
    }
  | Effort_received of {
      peer : Ids.Identity.t;
      from_ : Ids.Identity.t;
      phase : effort_phase;
      au : Ids.Au_id.t;
      poll_id : int;
      seconds : float;
    }
  | Message_rejected of {
      peer : Ids.Identity.t;
      from_ : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int option;
      msg_kind : string;
      reason : reject_reason;
    }
  | Fault_dropped of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_duplicated of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_delayed of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Partition_dropped of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_corrupted of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_replayed of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Fault_stale of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Fault_stray of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Node_crashed of { node : Ids.Identity.t }
  | Node_restarted of { node : Ids.Identity.t }
  | Invariant_violated of {
      invariant : string;
      peer : Ids.Identity.t option;
      au : Ids.Au_id.t option;
      poll_id : int option;
      detail : string;
    }

(* Severity is declared ahead of the bus so subscriptions can carry an
   interest level and [emit] can skip event construction outright. *)
type severity = Debug | Info | Warn

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

type t = {
  mutable subscribers : (time:float -> event -> unit) list;
  (* Minimum interest across subscribers — only meaningful when the
     subscriber list is non-empty. *)
  mutable min_interest : severity;
}

let create () = { subscribers = []; min_interest = Warn }

let subscribe ?(interest = Debug) t f =
  (match t.subscribers with
  | [] -> t.min_interest <- interest
  | _ ->
    if severity_rank interest < severity_rank t.min_interest then
      t.min_interest <- interest);
  t.subscribers <- f :: t.subscribers

(* [bound] is the highest severity the event under construction could
   have — declared at the call site, so when every subscriber asked for
   something stricter the thunk is never run and the emit allocates
   nothing. The default [Warn] (the top severity) disables skipping,
   which is always sound. *)
let emit ?(bound = Warn) t ~now thunk =
  match t.subscribers with
  | [] -> ()
  | subscribers ->
    if severity_rank bound >= severity_rank t.min_interest then begin
      let event = thunk () in
      List.iter (fun f -> f ~time:now event) subscribers
    end

let pp_correlation ppf (poller, au, poll_id) =
  (match poll_id with
  | Some id -> Format.fprintf ppf " poll %d" id
  | None -> ());
  (match poller with
  | Some p -> Format.fprintf ppf " by %a" Ids.Identity.pp p
  | None -> ());
  match au with Some a -> Format.fprintf ppf " on %a" Ids.Au_id.pp a | None -> ()

let pp_event ppf = function
  | Poll_started { poller; au; poll_id; inner_candidates } ->
    Format.fprintf ppf "poll %d started by %a on %a (%d inner candidates)" poll_id
      Ids.Identity.pp poller Ids.Au_id.pp au inner_candidates
  | Solicitation_sent { poller; voter; au; poll_id; attempt } ->
    Format.fprintf ppf "poll %d: %a solicits %a on %a (attempt %d)" poll_id
      Ids.Identity.pp poller Ids.Identity.pp voter Ids.Au_id.pp au attempt
  | Invitation_dropped { voter; claimed; au; poll_id; reason } ->
    let reason =
      match reason with
      | Admission.Refractory -> "refractory"
      | Admission.Random_drop -> "random drop"
      | Admission.Known_rate_limited -> "per-peer rate limit"
    in
    Format.fprintf ppf "poll %d: %a drops invitation claimed by %a on %a (%s)" poll_id
      Ids.Identity.pp voter Ids.Identity.pp claimed Ids.Au_id.pp au reason
  | Invitation_admitted { voter; claimed; au; poll_id; path } ->
    Format.fprintf ppf "%s: %a admits invitation claimed by %a on %a (%s)"
      (match poll_id with Some id -> Printf.sprintf "poll %d" id | None -> "garbage")
      Ids.Identity.pp voter Ids.Identity.pp claimed Ids.Au_id.pp au
      (admission_path_to_string path)
  | Invitation_refused { voter; poller; au; poll_id } ->
    Format.fprintf ppf "poll %d: %a refuses %a on %a (busy)" poll_id Ids.Identity.pp
      voter Ids.Identity.pp poller Ids.Au_id.pp au
  | Invitation_accepted { voter; poller; au; poll_id } ->
    Format.fprintf ppf "poll %d: %a accepts %a on %a" poll_id Ids.Identity.pp voter
      Ids.Identity.pp poller Ids.Au_id.pp au
  | Vote_sent { voter; poller; au; poll_id } ->
    Format.fprintf ppf "poll %d: %a votes for %a on %a" poll_id Ids.Identity.pp voter
      Ids.Identity.pp poller Ids.Au_id.pp au
  | Poll_sampled { poller; au; poll_id; invited; reference } ->
    Format.fprintf ppf "poll %d: %a samples %d of %d reference peers on %a" poll_id
      Ids.Identity.pp poller (List.length invited) (List.length reference) Ids.Au_id.pp
      au
  | Evaluation_started { poller; au; poll_id; votes } ->
    Format.fprintf ppf "poll %d: %a evaluates %d votes on %a" poll_id Ids.Identity.pp
      poller votes Ids.Au_id.pp au
  | Repair_applied { poller; au; poll_id; block; version; clean } ->
    Format.fprintf ppf "poll %d: %a repairs %a block %d to version %d%s" poll_id
      Ids.Identity.pp poller Ids.Au_id.pp au block version
      (if clean then " (replica clean)" else "")
  | Poll_concluded { poller; au; poll_id; outcome } ->
    let outcome =
      match outcome with
      | Metrics.Success -> "success"
      | Metrics.Inquorate -> "inquorate"
      | Metrics.Alarmed -> "ALARM"
    in
    Format.fprintf ppf "poll %d: %a concludes on %a: %s" poll_id Ids.Identity.pp poller
      Ids.Au_id.pp au outcome
  | Effort_charged { peer; role; phase; poller; au; poll_id; seconds } ->
    Format.fprintf ppf "effort: %a (%s) spends %a on %s%a" Ids.Identity.pp peer
      (effort_role_to_string role) Repro_prelude.Duration.pp seconds
      (effort_phase_to_string phase) pp_correlation (poller, au, poll_id)
  | Effort_received { peer; from_; phase; au; poll_id; seconds } ->
    Format.fprintf ppf "effort: %a proves %a of %s effort to %a%a" Ids.Identity.pp from_
      Repro_prelude.Duration.pp seconds (effort_phase_to_string phase) Ids.Identity.pp
      peer pp_correlation (None, Some au, Some poll_id)
  | Message_rejected { peer; from_; au; poll_id; msg_kind; reason } ->
    Format.fprintf ppf "%a rejects %s from %a (%s)%a" Ids.Identity.pp peer msg_kind
      Ids.Identity.pp from_
      (reject_reason_to_string reason)
      pp_correlation (None, Some au, poll_id)
  | Fault_dropped { src; dst } ->
    Format.fprintf ppf "fault: message %a -> %a dropped" Ids.Identity.pp src
      Ids.Identity.pp dst
  | Fault_duplicated { src; dst } ->
    Format.fprintf ppf "fault: message %a -> %a duplicated" Ids.Identity.pp src
      Ids.Identity.pp dst
  | Fault_delayed { src; dst; extra } ->
    Format.fprintf ppf "fault: message %a -> %a delayed by %a" Ids.Identity.pp src
      Ids.Identity.pp dst Repro_prelude.Duration.pp extra
  | Partition_dropped { src; dst } ->
    Format.fprintf ppf "partition: message %a -> %a blocked" Ids.Identity.pp src
      Ids.Identity.pp dst
  | Fault_corrupted { src; dst } ->
    Format.fprintf ppf "fault: message %a -> %a corrupted" Ids.Identity.pp src
      Ids.Identity.pp dst
  | Fault_replayed { src; dst; extra } ->
    Format.fprintf ppf "fault: message %a -> %a replayed after %a" Ids.Identity.pp src
      Ids.Identity.pp dst Repro_prelude.Duration.pp extra
  | Fault_stale { src; dst; extra } ->
    Format.fprintf ppf "fault: message %a -> %a replayed stale after %a" Ids.Identity.pp
      src Ids.Identity.pp dst Repro_prelude.Duration.pp extra
  | Fault_stray { src; dst } ->
    Format.fprintf ppf "fault: stray message forged %a -> %a" Ids.Identity.pp src
      Ids.Identity.pp dst
  | Node_crashed { node } -> Format.fprintf ppf "fault: %a crashed" Ids.Identity.pp node
  | Node_restarted { node } ->
    Format.fprintf ppf "fault: %a restarted" Ids.Identity.pp node
  | Invariant_violated { invariant; peer; au; poll_id; detail } ->
    Format.fprintf ppf "INVARIANT %s violated%a: %s" invariant pp_correlation
      (peer, au, poll_id) detail

(* -- Taxonomy ---------------------------------------------------------- *)

let severity = function
  | Solicitation_sent _ | Invitation_admitted _ | Invitation_refused _
  | Invitation_accepted _ | Vote_sent _ | Poll_sampled _ | Evaluation_started _
  | Effort_charged _ | Effort_received _ | Message_rejected _ | Fault_dropped _
  | Fault_duplicated _ | Fault_delayed _ | Partition_dropped _ | Fault_corrupted _
  | Fault_replayed _ | Fault_stale _ | Fault_stray _ ->
    Debug
  | Poll_started _ | Invitation_dropped _ | Repair_applied _
  | Poll_concluded { outcome = Metrics.Success; _ }
  | Node_crashed _ | Node_restarted _ ->
    Info
  | Poll_concluded { outcome = Metrics.Inquorate | Metrics.Alarmed; _ }
  | Invariant_violated _ ->
    Warn

let severities = enum [ (Debug, "debug"); (Info, "info"); (Warn, "warn") ]
let severity_to_string = to_string severities

let severity_of_string s =
  match String.lowercase_ascii s with
  | "warning" -> Some Warn
  | s -> of_string severities s

let drop_reasons =
  enum
    [
      (Admission.Refractory, "refractory");
      (Admission.Random_drop, "random_drop");
      (Admission.Known_rate_limited, "known_rate_limited");
    ]

let outcomes =
  enum
    [
      (Metrics.Success, "success");
      (Metrics.Inquorate, "inquorate");
      (Metrics.Alarmed, "alarmed");
    ]

let poll_outcome_to_string = to_string outcomes

(* -- Event schema ------------------------------------------------------- *)

(* A record member: its name and atom ([id]) and its JSONL prefix
   (separator, quoted name, colon). *)
type key = { id : token; prefix : string }

let key name =
  let id = token name in
  { id; prefix = "," ^ id.quoted ^ ":" }

(* The header every record opens with; ["t"] also opens the JSON object. *)
let k_t = { (key "t") with prefix = "{\"t\":" }
let k_severity = key "severity"
let k_kind = key "kind"
let k_poller = key "poller"
let k_voter = key "voter"
let k_claimed = key "claimed"
let k_peer = key "peer"
let k_from = key "from"
let k_src = key "src"
let k_dst = key "dst"
let k_node = key "node"
let k_invited = key "invited"
let k_reference = key "reference"
let k_au = key "au"
let k_poll_id = key "poll_id"
let k_inner_candidates = key "inner_candidates"
let k_attempt = key "attempt"
let k_reason = key "reason"
let k_path = key "path"
let k_votes = key "votes"
let k_block = key "block"
let k_version = key "version"
let k_clean = key "clean"
let k_outcome = key "outcome"
let k_role = key "role"
let k_phase = key "phase"
let k_seconds = key "seconds"
let k_extra = key "extra"
let k_msg_kind = key "msg_kind"
let k_invariant = key "invariant"
let k_detail = key "detail"

(* The decoding side of the schema: typed member lookups on one
   serialised record, each raising [Malformed] naming the member it
   could not read. *)
type reader = {
  int : key -> int;
  opt_int : key -> int option;
  float : key -> float;
  bool : key -> bool;
  ids : key -> Ids.Identity.t list;
  str : key -> string;
  tok : 'a. 'a enum -> key -> 'a;
}

exception Malformed of string

(* The kind table: each kind's name and decode arm, one row per
   constructor in declaration order. *)
let kinds : (string * (reader -> event)) array =
  [|
    ( "poll_started",
      fun r ->
        Poll_started
          {
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            inner_candidates = r.int k_inner_candidates;
          } );
    ( "solicitation_sent",
      fun r ->
        Solicitation_sent
          {
            poller = r.int k_poller;
            voter = r.int k_voter;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            attempt = r.int k_attempt;
          } );
    ( "invitation_dropped",
      fun r ->
        Invitation_dropped
          {
            voter = r.int k_voter;
            claimed = r.int k_claimed;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            reason = r.tok drop_reasons k_reason;
          } );
    ( "invitation_admitted",
      fun r ->
        Invitation_admitted
          {
            voter = r.int k_voter;
            claimed = r.int k_claimed;
            au = r.int k_au;
            poll_id = r.opt_int k_poll_id;
            path = r.tok admission_paths k_path;
          } );
    ( "invitation_refused",
      fun r ->
        Invitation_refused
          {
            voter = r.int k_voter;
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
          } );
    ( "invitation_accepted",
      fun r ->
        Invitation_accepted
          {
            voter = r.int k_voter;
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
          } );
    ( "vote_sent",
      fun r ->
        Vote_sent
          {
            voter = r.int k_voter;
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
          } );
    ( "poll_sampled",
      fun r ->
        Poll_sampled
          {
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            invited = r.ids k_invited;
            reference = r.ids k_reference;
          } );
    ( "evaluation_started",
      fun r ->
        Evaluation_started
          {
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            votes = r.int k_votes;
          } );
    ( "repair_applied",
      fun r ->
        Repair_applied
          {
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            block = r.int k_block;
            version = r.int k_version;
            clean = r.bool k_clean;
          } );
    ( "poll_concluded",
      fun r ->
        Poll_concluded
          {
            poller = r.int k_poller;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            outcome = r.tok outcomes k_outcome;
          } );
    ( "effort_charged",
      fun r ->
        Effort_charged
          {
            peer = r.int k_peer;
            role = r.tok roles k_role;
            phase = r.tok phases k_phase;
            poller = r.opt_int k_poller;
            au = r.opt_int k_au;
            poll_id = r.opt_int k_poll_id;
            seconds = r.float k_seconds;
          } );
    ( "effort_received",
      fun r ->
        Effort_received
          {
            peer = r.int k_peer;
            from_ = r.int k_from;
            phase = r.tok phases k_phase;
            au = r.int k_au;
            poll_id = r.int k_poll_id;
            seconds = r.float k_seconds;
          } );
    ( "message_rejected",
      fun r ->
        Message_rejected
          {
            peer = r.int k_peer;
            from_ = r.int k_from;
            au = r.int k_au;
            poll_id = r.opt_int k_poll_id;
            msg_kind = r.str k_msg_kind;
            reason = r.tok reject_reasons k_reason;
          } );
    ("fault_dropped", fun r -> Fault_dropped { src = r.int k_src; dst = r.int k_dst });
    ( "fault_duplicated",
      fun r -> Fault_duplicated { src = r.int k_src; dst = r.int k_dst } );
    ( "fault_delayed",
      fun r ->
        Fault_delayed { src = r.int k_src; dst = r.int k_dst; extra = r.float k_extra } );
    ( "partition_dropped",
      fun r -> Partition_dropped { src = r.int k_src; dst = r.int k_dst } );
    ("fault_corrupted", fun r -> Fault_corrupted { src = r.int k_src; dst = r.int k_dst });
    ( "fault_replayed",
      fun r ->
        Fault_replayed { src = r.int k_src; dst = r.int k_dst; extra = r.float k_extra } );
    ( "fault_stale",
      fun r ->
        Fault_stale { src = r.int k_src; dst = r.int k_dst; extra = r.float k_extra } );
    ("fault_stray", fun r -> Fault_stray { src = r.int k_src; dst = r.int k_dst });
    ("node_crashed", fun r -> Node_crashed { node = r.int k_node });
    ("node_restarted", fun r -> Node_restarted { node = r.int k_node });
    ( "invariant_violated",
      fun r ->
        Invariant_violated
          {
            invariant = r.str k_invariant;
            peer = r.opt_int k_peer;
            au = r.opt_int k_au;
            poll_id = r.opt_int k_poll_id;
            detail = r.str k_detail;
          } );
  |]

let kind_tokens = Array.map (fun (name, _) -> token name) kinds
let decoders = Hashtbl.of_seq (Array.to_seq kinds)

(* Every constructor carries a record, so its block tag is its position
   in the declaration, which is its row in [kinds]. A constructor
   without a row fails the bounds check; rows out of order fail the
   round-trip tests. *)
let kind_token (event : event) = kind_tokens.(Obj.tag (Obj.repr event))
let kind event = (kind_token event).name
let all_kinds = Array.to_list (Array.map fst kinds)

(* The encoding side of the schema: one callback per value shape, each
   taking the encoder's state [s] (a buffer, a writer, a counter), so every
   visitor is a static value and walking an event allocates nothing. *)
type 's visitor = {
  int : 's -> key -> int -> unit;
  opt_int : 's -> key -> int option -> unit;
  float : 's -> key -> float -> unit;
  bool : 's -> key -> bool -> unit;
  ids : 's -> key -> Ids.Identity.t list -> unit;
  tok : 's -> key -> token -> unit;
  str : 's -> key -> string -> unit;
}

(* The [opt_int] of a visitor that encodes a present optional member like
   any other int and an absent one not at all. *)
let present int s k = function None -> () | Some i -> int s k i

(* Every event's payload members, in encoding order. *)
let fields v s = function
  | Poll_started { poller; au; poll_id; inner_candidates } ->
    v.int s k_poller poller;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.int s k_inner_candidates inner_candidates
  | Solicitation_sent { poller; voter; au; poll_id; attempt } ->
    v.int s k_poller poller;
    v.int s k_voter voter;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.int s k_attempt attempt
  | Invitation_dropped { voter; claimed; au; poll_id; reason } ->
    v.int s k_voter voter;
    v.int s k_claimed claimed;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.tok s k_reason (token_of drop_reasons reason)
  | Invitation_admitted { voter; claimed; au; poll_id; path } ->
    v.int s k_voter voter;
    v.int s k_claimed claimed;
    v.int s k_au au;
    v.opt_int s k_poll_id poll_id;
    v.tok s k_path (token_of admission_paths path)
  | Invitation_refused { voter; poller; au; poll_id }
  | Invitation_accepted { voter; poller; au; poll_id }
  | Vote_sent { voter; poller; au; poll_id } ->
    v.int s k_voter voter;
    v.int s k_poller poller;
    v.int s k_au au;
    v.int s k_poll_id poll_id
  | Poll_sampled { poller; au; poll_id; invited; reference } ->
    v.int s k_poller poller;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.ids s k_invited invited;
    v.ids s k_reference reference
  | Evaluation_started { poller; au; poll_id; votes } ->
    v.int s k_poller poller;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.int s k_votes votes
  | Repair_applied { poller; au; poll_id; block; version; clean } ->
    v.int s k_poller poller;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.int s k_block block;
    v.int s k_version version;
    v.bool s k_clean clean
  | Poll_concluded { poller; au; poll_id; outcome } ->
    v.int s k_poller poller;
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.tok s k_outcome (token_of outcomes outcome)
  | Effort_charged { peer; role; phase; poller; au; poll_id; seconds } ->
    v.int s k_peer peer;
    v.tok s k_role (token_of roles role);
    v.tok s k_phase (token_of phases phase);
    v.opt_int s k_poller poller;
    v.opt_int s k_au au;
    v.opt_int s k_poll_id poll_id;
    v.float s k_seconds seconds
  | Effort_received { peer; from_; phase; au; poll_id; seconds } ->
    v.int s k_peer peer;
    v.int s k_from from_;
    v.tok s k_phase (token_of phases phase);
    v.int s k_au au;
    v.int s k_poll_id poll_id;
    v.float s k_seconds seconds
  | Message_rejected { peer; from_; au; poll_id; msg_kind; reason } ->
    v.int s k_peer peer;
    v.int s k_from from_;
    v.int s k_au au;
    v.opt_int s k_poll_id poll_id;
    v.str s k_msg_kind msg_kind;
    v.tok s k_reason (token_of reject_reasons reason)
  | Fault_dropped { src; dst }
  | Fault_duplicated { src; dst }
  | Partition_dropped { src; dst }
  | Fault_corrupted { src; dst }
  | Fault_stray { src; dst } ->
    v.int s k_src src;
    v.int s k_dst dst
  | Fault_delayed { src; dst; extra }
  | Fault_replayed { src; dst; extra }
  | Fault_stale { src; dst; extra } ->
    v.int s k_src src;
    v.int s k_dst dst;
    v.float s k_extra extra
  | Node_crashed { node } | Node_restarted { node } -> v.int s k_node node
  | Invariant_violated { invariant; peer; au; poll_id; detail } ->
    v.str s k_invariant invariant;
    v.opt_int s k_peer peer;
    v.opt_int s k_au au;
    v.opt_int s k_poll_id poll_id;
    v.str s k_detail detail

(* The whole record: the header, then the payload. *)
let walk v s ~time event =
  v.float s k_t time;
  v.tok s k_severity (token_of severities (severity event));
  v.tok s k_kind (kind_token event);
  fields v s event

(* -- JSON round-trip --------------------------------------------------- *)

let json_int members k i = members := (k.id.name, Json.Int i) :: !members

let json_visitor =
  let add members k value = members := (k.id.name, value) :: !members in
  {
    int = json_int;
    opt_int = present json_int;
    float = (fun m k f -> add m k (Json.Float f));
    bool = (fun m k b -> add m k (Json.Bool b));
    ids = (fun m k xs -> add m k (Json.List (List.map (fun i -> Json.Int i) xs)));
    tok = (fun m k t -> add m k (Json.String t.name));
    str = (fun m k s -> add m k (Json.String s));
  }

let to_json ~time event =
  let members = ref [] in
  walk json_visitor members ~time event;
  Json.Assoc (List.rev !members)

let of_json json =
  let member name decode =
    match Option.bind (Json.member name json) decode with
    | Some v -> v
    | None -> raise (Malformed (Printf.sprintf "missing or malformed field %S" name))
  in
  let int_list = function
    | Json.List items ->
      let ints = List.filter_map Json.to_int items in
      if List.length ints = List.length items then Some ints else None
    | _ -> None
  in
  (* Optional correlation fields are simply omitted when unknown; [Null]
     is accepted too so hand-written traces can be explicit. *)
  let opt_int k =
    match Json.member k.id.name json with
    | None | Some Json.Null -> None
    | Some v -> (
      match Json.to_int v with
      | Some i -> Some i
      | None -> raise (Malformed (Printf.sprintf "malformed optional field %S" k.id.name)))
  in
  let r : reader =
    {
      int = (fun k -> member k.id.name Json.to_int);
      opt_int;
      float = (fun k -> member k.id.name Json.to_float);
      bool = (fun k -> member k.id.name Json.to_bool);
      ids = (fun k -> member k.id.name int_list);
      str = (fun k -> member k.id.name Json.string_value);
      tok =
        (fun table k ->
          member k.id.name (fun v -> Option.bind (Json.string_value v) (of_string table)));
    }
  in
  match
    let time = r.float k_t in
    let kind = r.str k_kind in
    match Hashtbl.find_opt decoders kind with
    | Some decode -> (time, decode r)
    | None -> raise (Malformed (Printf.sprintf "unknown event kind %S" kind))
  with
  | decoded -> Ok decoded
  | exception Malformed msg -> Error msg

let iter_file path ~f =
  Obs.Trace_file.iter path ~f:(fun ~line record -> f ~line (Result.bind record of_json))

(* -- Sinks ------------------------------------------------------------- *)

type sink = time:float -> event -> unit

let severity_at_least min s = severity_rank s >= severity_rank min

let pretty_sink ?(min_severity = Debug) ppf ~time event =
  if severity_at_least min_severity (severity event) then
    Format.fprintf ppf "[%a] [%s] %a@." Repro_prelude.Duration.pp time
      (severity_to_string (severity event))
      pp_event event

(* Whether [s] needs no JSON escaping, as every message kind does:
   such strings skip [Json.write]'s allocating escaper. *)
let rec plain s i =
  i = String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1)

(* Top-level recursion: an inner loop capturing [buf] would allocate a
   closure per event. *)
let rec add_ids buf first = function
  | [] -> ()
  | x :: rest ->
    if not first then Buffer.add_char buf ',';
    Json.write_int buf x;
    add_ids buf false rest

(* The JSONL encoder's state: the line buffer and its float-literal
   memos. Rendering a float is the most expensive step of a line: about
   half of all events share their predecessor's timestamp, and payload
   floats (effort charges are config constants) take only a handful of
   distinct values. The last time lives in a one-element float array,
   not a [float ref]: assigning a float ref boxes the value on every
   store. *)
type jsonl = {
  buf : Buffer.t;
  last_time : float array;
  mutable last_literal : string;
  payload_literals : (float, string) Hashtbl.t;
}

let jsonl buf =
  { buf; last_time = [| nan |]; last_literal = ""; payload_literals = Hashtbl.create 32 }

let literal j k f =
  if k == k_t then begin
    if not (Float.equal f j.last_time.(0)) then begin
      j.last_time.(0) <- f;
      j.last_literal <- Json.float_literal f
    end;
    j.last_literal
  end
  else
    (* [find] over [find_opt]: the hit path allocates nothing. *)
    match Hashtbl.find j.payload_literals f with
    | s -> s
    | exception Not_found ->
      let s = Json.float_literal f in
      if Hashtbl.length j.payload_literals < 256 then Hashtbl.add j.payload_literals f s;
      s

let add_member j k s =
  Buffer.add_string j.buf k.prefix;
  Buffer.add_string j.buf s

let jsonl_int j k i =
  Buffer.add_string j.buf k.prefix;
  Json.write_int j.buf i

(* Appends each member as its key's pre-rendered prefix plus the value:
   exactly the bytes of [Json.write buf (to_json ~time event)] without
   building the tree. *)
let jsonl_visitor =
  {
    int = jsonl_int;
    opt_int = present jsonl_int;
    float = (fun j k f -> add_member j k (literal j k f));
    bool = (fun j k b -> add_member j k (if b then "true" else "false"));
    ids =
      (fun j k xs ->
        add_member j k "[";
        add_ids j.buf true xs;
        Buffer.add_char j.buf ']');
    tok = (fun j k t -> add_member j k t.quoted);
    str =
      (fun j k s ->
        if plain s 0 then begin
          add_member j k "\"";
          Buffer.add_string j.buf s;
          Buffer.add_char j.buf '"'
        end
        else begin
          Buffer.add_string j.buf k.prefix;
          Json.write j.buf (Json.String s)
        end);
  }

let write_jsonl buf ~time event =
  walk jsonl_visitor (jsonl buf) ~time event;
  Buffer.add_char buf '}'

let buffered_jsonl_sink ?(min_severity = Debug) sink =
  let j = jsonl (Buffer.create 512) in
  fun ~time event ->
    if severity_at_least min_severity (severity event) then begin
      Buffer.clear j.buf;
      walk jsonl_visitor j ~time event;
      Buffer.add_string j.buf "}\n";
      Obs.Sink.write_buffer sink ~now:time j.buf
    end

let rec put_ints w = function
  | [] -> ()
  | x :: rest ->
    Obs.Btrace.put_int w x;
    put_ints w rest

let binary_int w k i =
  Obs.Btrace.put_atom w k.id.atom;
  Obs.Btrace.put_int w i

(* Puts each member as its key's atom plus the value: byte-identical to
   [Obs.Btrace.write w (to_json ~time event)], intern ids included. *)
let binary_visitor =
  let module B = Obs.Btrace in
  {
    int = binary_int;
    opt_int = present binary_int;
    float =
      (fun w k f ->
        B.put_atom w k.id.atom;
        B.put_float w f);
    bool =
      (fun w k b ->
        B.put_atom w k.id.atom;
        B.put_bool w b);
    ids =
      (fun w k xs ->
        B.put_atom w k.id.atom;
        B.put_list_header w (List.length xs);
        put_ints w xs);
    tok =
      (fun w k t ->
        B.put_atom w k.id.atom;
        B.put_atom w t.atom);
    str =
      (fun w k s ->
        B.put_atom w k.id.atom;
        B.put_string w s);
  }

let count members _ _ = incr members

let counter =
  {
    int = count;
    opt_int = present count;
    float = count;
    bool = count;
    ids = count;
    tok = count;
    str = count;
  }

let binary_sink ?(min_severity = Debug) w =
  let members = ref 0 in
  fun ~time event ->
    if severity_at_least min_severity (severity event) then begin
      (* The object header needs the member count up front: the three
         header members, then the payload's. *)
      members := 3;
      fields counter members event;
      Obs.Btrace.begin_record w;
      Obs.Btrace.put_assoc_header w !members;
      walk binary_visitor w ~time event;
      Obs.Btrace.end_record w ~now:time ()
    end

(* -- Recording --------------------------------------------------------- *)

type record = { events : (float * event) list; dropped : int }

let recorder ?(capacity = 65_536) t =
  if capacity <= 0 then invalid_arg "Trace.recorder: capacity must be positive";
  let ring = Array.make capacity None in
  let next = ref 0 in
  let total = ref 0 in
  subscribe t (fun ~time event ->
      ring.(!next) <- Some (time, event);
      next := (!next + 1) mod capacity;
      incr total);
  fun () ->
    let retained = min !total capacity in
    let start = (!next - retained + capacity) mod capacity in
    let events =
      List.init retained (fun i ->
          match ring.((start + i) mod capacity) with
          | Some entry -> entry
          | None -> assert false)
    in
    { events; dropped = !total - retained }
