(** Flat, analyzer-facing projection of one trace event.

    The live span builder and effort ledger used to consume events by
    serialising them to JSON on the bus and re-dissecting the JSON with
    linear [member] lookups — the dominant cost of live analysis. A
    view is the same information as a flat record of options, cheap to
    fill directly from a typed event ([Lockss.Trace.to_view]) and
    cheap to read. [of_json] recovers a view from a serialised event so
    offline and live paths share one feeding code path.

    Only the fields the analyzers consult are represented; events carry
    more (attempt counters, content versions, fault descriptors) that
    the span builder and ledger ignore.

    Optional fields are mutable so a live caller can fill a fresh view
    member by member ({!create}, then the [set_*] functions). *)

type t = {
  kind : string;
  time : float;
  mutable poller : int option;
  mutable voter : int option;
  mutable claimed : int option;  (** claimed poller id on [invitation_dropped] *)
  mutable peer : int option;
  mutable from_ : int option;  (** sender on [effort_received] *)
  mutable au : int option;
  mutable poll_id : int option;
  mutable inner_candidates : int option;
  mutable votes : int option;
  mutable seconds : float option;
  mutable role : string option;
  mutable phase : string option;
  mutable outcome : string option;
}

(** [create ~kind ~time] is a view with no optional field present. *)
val create : kind:string -> time:float -> t

(** [reads name] is whether {!of_json} reads the serialised payload
    member [name] into an optional field. *)
val reads : string -> bool

(** [set_int v name o], [set_float v name o] and [set_string v name o]
    store [o] in the field that {!of_json} fills from the serialised
    payload member [name] (["from"] is [from_], other names are the
    field's own); members the analyzers do not read are ignored. *)
val set_int : t -> string -> int option -> unit

val set_float : t -> string -> float option -> unit
val set_string : t -> string -> string option -> unit

(** [of_json json] projects a serialised trace event; [None] when
    [json] has no ["kind"] string member. Missing ["t"] defaults to
    [0.], matching the JSON analyzers. *)
val of_json : Json.t -> t option
