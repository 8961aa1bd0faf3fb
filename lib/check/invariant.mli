(** The protocol invariant registry.

    Each invariant is an online predicate over the stream of observed
    {!Lockss.Trace} events: it accumulates whatever state it needs and
    emits structured {!violation}s the moment the stream contradicts the
    paper's defenses. Invariants are deliberately {e conservative} —
    they only fire on histories no correct implementation can produce,
    so a fault-free baseline must always audit clean (the mutation
    self-tests in [test/test_check.ml] prove each one still fires on a
    seeded violation).

    The catalogue:
    - ["effort-balance"] — the effort-sizing inequality: at every proof
      receipt and at vote-commit time, the effort a poller has proven to
      a voter covers everything the voter has spent on that poll.
    - ["refractory"] — self-clocked admission: at most one admission per
      supplier (per AU) per refractory period, on {e every} path
      (introductions bypass only the random drops).
    - ["grade-decay"] — between touches of a known-peers entry, the
      effective grade only decays toward Debt.
    - ["sampling"] — the invited inner circle is drawn from the
      reference list, excludes the poller, and holds no duplicates.
    - ["quorum"] — a poll reaches a content conclusion (success/alarm)
      only at or above [quorum] inner-circle votes.
    - ["conservation"] — the trace-derived ledger reconciles with the
      metrics aggregates (live runs only; needs a summary). *)

type severity = Warning | Error

val severity_to_string : severity -> string

(** The protocol constants an audit needs. Derive them with
    {!params_of_config} for live runs; offline audits of a bare trace
    must supply the values the traced run used. *)
type params = {
  refractory_period : float;
  quorum : int;
  decay_period : float;
  admission_control : bool;  (** gates the refractory invariant *)
  introductions : bool;
  effort_balancing : bool;  (** gates the effort-balance invariant *)
  tolerance : float;  (** relative slack for float comparisons *)
}

(** {!Lockss.Config.default} constants with tolerance [1e-6]. *)
val default_params : params

val params_of_config : Lockss.Config.t -> params

type violation = {
  invariant : string;
  severity : severity;
  time : float;  (** simulated seconds *)
  peer : Lockss.Ids.Identity.t option;
  au : Lockss.Ids.Au_id.t option;
  poll_id : int option;
  detail : string;
}

val violation_to_json : violation -> Obs.Json.t
val pp_violation : Format.formatter -> violation -> unit

(** End-of-stream context for invariants that check aggregate
    conservation rather than per-event properties. *)
type context = { ledger : Ledger.t; metrics : Lockss.Metrics.summary option }

(** A live instance of one invariant: feed it every event in stream
    order, then give it one [at_end] call. *)
type instance = {
  on_event : time:float -> Lockss.Trace.event -> unit;
  at_end : time:float -> context -> unit;
}

type t = {
  id : string;
  severity : severity;
  doc : string;
  enabled : params -> bool;
      (** whether the invariant is meaningful under these parameters
          (e.g. effort-balance needs effort balancing switched on) *)
  instantiate : params -> emit:(violation -> unit) -> instance;
}

(** All invariants, in catalogue order. *)
val registry : t list

val find : string -> t option
