(** Flat, analyzer-facing projection of one trace event.

    The span builder and effort ledger read events as a flat record of
    options, filled straight from a typed event
    ([Lockss.Trace.to_view]). Live runs and offline trace files take
    that same path: a trace file is decoded into typed events first
    ([Lockss.Trace.iter_file]), so the analyzers never see raw JSON.

    Only the fields the analyzers consult are represented; events carry
    more (attempt counters, content versions, fault descriptors) that
    the span builder and ledger ignore.

    Optional fields are mutable so a caller can fill a fresh view
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

(** [reads name] is whether the analyzers read the serialised payload
    member [name]: whether a [set_*] call on it stores anything. *)
val reads : string -> bool

(** [set_int v name o], [set_float v name o] and [set_string v name o]
    store [o] in the field for the serialised payload member [name]
    (["from"] is [from_], other names are the field's own); members the
    analyzers do not read are ignored. *)
val set_int : t -> string -> int option -> unit

val set_float : t -> string -> float option -> unit
val set_string : t -> string -> string option -> unit
