module Trace = Lockss.Trace

type t = {
  params : Invariant.params;
  instances : (Invariant.t * Invariant.instance) list;
  ledger : Ledger.t;
  violations : Invariant.violation list ref;  (* newest first *)
  on_violation : (Invariant.violation -> unit) option ref;
  last_time : float ref;
  finished : bool ref;
}

let create ?(params = Invariant.default_params) ?only () =
  let selected =
    match only with
    | None -> Invariant.registry
    | Some ids ->
      List.filter (fun inv -> List.mem inv.Invariant.id ids) Invariant.registry
  in
  let violations = ref [] in
  let on_violation = ref None in
  let emit v =
    violations := v :: !violations;
    match !on_violation with None -> () | Some f -> f v
  in
  let instances =
    List.filter_map
      (fun inv ->
        if inv.Invariant.enabled params then
          Some (inv, inv.Invariant.instantiate params ~emit)
        else None)
      selected
  in
  {
    params;
    instances;
    ledger = Ledger.create ();
    violations;
    on_violation;
    last_time = ref 0.;
    finished = ref false;
  }

let params t = t.params

let feed t ~time event =
  match event with
  | Trace.Invariant_violated _ ->
    (* Never react to our own (or a previous auditor's) reports: a live
       auditor re-emits violations onto the bus it subscribes to, and
       ignoring them here makes that provably loop-free. *)
    ()
  | _ ->
    t.last_time := Float.max !(t.last_time) time;
    Ledger.feed t.ledger ~time event;
    List.iter (fun (_, inst) -> inst.Invariant.on_event ~time event) t.instances

let record_violation t v =
  t.violations := v :: !(t.violations);
  match !(t.on_violation) with None -> () | Some f -> f v

let feed_record t ~line = function
  | Ok (time, event) -> feed t ~time event
  | Error msg ->
    record_violation t
      {
        Invariant.invariant = "trace-format";
        severity = Invariant.Error;
        time = !(t.last_time);
        peer = None;
        au = None;
        poll_id = None;
        detail = Printf.sprintf "line %d: %s" line msg;
      }

let finish ?metrics t =
  if not !(t.finished) then begin
    t.finished := true;
    let ctx = { Invariant.ledger = t.ledger; metrics } in
    List.iter
      (fun (_, inst) -> inst.Invariant.at_end ~time:!(t.last_time) ctx)
      t.instances
  end

let attach t bus =
  t.on_violation :=
    Some
      (fun (v : Invariant.violation) ->
        Trace.emit bus ~now:v.Invariant.time (fun () ->
            Trace.Invariant_violated
              {
                invariant = v.Invariant.invariant;
                peer = v.Invariant.peer;
                au = v.Invariant.au;
                poll_id = v.Invariant.poll_id;
                detail = v.Invariant.detail;
              }));
  Trace.subscribe bus (fun ~time event -> feed t ~time event)

let violations t = List.rev !(t.violations)
let violation_count t = List.length !(t.violations)

let report_json t =
  Obs.Json.Assoc
    [
      ("violations", Obs.Json.Int (violation_count t));
      ( "checked",
        Obs.Json.List
          (List.map (fun (inv, _) -> Obs.Json.String inv.Invariant.id) t.instances) );
      ("detail", Obs.Json.List (List.map Invariant.violation_to_json (violations t)));
    ]

let pp_report ppf t =
  Format.fprintf ppf "@[<v>checked:";
  List.iter (fun (inv, _) -> Format.fprintf ppf " %s" inv.Invariant.id) t.instances;
  Format.fprintf ppf "@,";
  List.iter (fun v -> Format.fprintf ppf "%a@," Invariant.pp_violation v) (violations t);
  Format.fprintf ppf "violations: %d@]" (violation_count t)
