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
