type t = {
  kind : string;
  time : float;
  mutable poller : int option;
  mutable voter : int option;
  mutable claimed : int option;
  mutable peer : int option;
  mutable from_ : int option;
  mutable au : int option;
  mutable poll_id : int option;
  mutable inner_candidates : int option;
  mutable votes : int option;
  mutable seconds : float option;
  mutable role : string option;
  mutable phase : string option;
  mutable outcome : string option;
}

let create ~kind ~time =
  {
    kind;
    time;
    poller = None;
    voter = None;
    claimed = None;
    peer = None;
    from_ = None;
    au = None;
    poll_id = None;
    inner_candidates = None;
    votes = None;
    seconds = None;
    role = None;
    phase = None;
    outcome = None;
  }

let reads = function
  | "poller" | "voter" | "claimed" | "peer" | "from" | "au" | "poll_id"
  | "inner_candidates" | "votes" | "seconds" | "role" | "phase" | "outcome" ->
    true
  | _ -> false

let set_int v name o =
  match name with
  | "poller" -> v.poller <- o
  | "voter" -> v.voter <- o
  | "claimed" -> v.claimed <- o
  | "peer" -> v.peer <- o
  | "from" -> v.from_ <- o
  | "au" -> v.au <- o
  | "poll_id" -> v.poll_id <- o
  | "inner_candidates" -> v.inner_candidates <- o
  | "votes" -> v.votes <- o
  | _ -> ()

let set_float v name o = match name with "seconds" -> v.seconds <- o | _ -> ()

let set_string v name o =
  match name with
  | "role" -> v.role <- o
  | "phase" -> v.phase <- o
  | "outcome" -> v.outcome <- o
  | _ -> ()

let str name json = Option.bind (Json.member name json) Json.string_value
let int_field name json = Option.bind (Json.member name json) Json.to_int
let float_field name json = Option.bind (Json.member name json) Json.to_float

let of_json json =
  match str "kind" json with
  | None -> None
  | Some kind ->
    Some
      {
        kind;
        time = Option.value ~default:0. (float_field "t" json);
        poller = int_field "poller" json;
        voter = int_field "voter" json;
        claimed = int_field "claimed" json;
        peer = int_field "peer" json;
        from_ = int_field "from" json;
        au = int_field "au" json;
        poll_id = int_field "poll_id" json;
        inner_candidates = int_field "inner_candidates" json;
        votes = int_field "votes" json;
        seconds = float_field "seconds" json;
        role = str "role" json;
        phase = str "phase" json;
        outcome = str "outcome" json;
      }
