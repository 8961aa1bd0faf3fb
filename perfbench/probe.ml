(* Instrumentation for the traced run, installed from outside the
   simulator through its public hooks: every loyal node's network
   handler is re-registered as a timing wrapper around
   [Population.default_handler], and the workload's own trace
   subscribers (binary sink, online auditor) are wrapped the same way.

   Accumulators live in [float array]s and the clocks are unboxed
   externals, so a wrapper allocates nothing per call: the traced run
   allocates what the untraced one does, plus nothing on the hot path.
   Time spent in a timed subscriber while a handler runs is charged to
   the subscriber, not to the handler (self time). *)

module Monotonic = Repro_prelude.Monotonic

(* [Monotonic.thread_cpu_s] is exported as a plain value, so a call
   through it returns a boxed float; binding the same C stub directly
   keeps the result unboxed and the wrappers allocation-free. *)
external thread_cpu_s : unit -> (float[@unboxed])
  = "repro_monotonic_thread_cpu_s" "repro_monotonic_thread_cpu_s_unboxed"
[@@noalloc]

let kinds =
  [| "poll"; "poll_ack"; "poll_proof"; "vote_msg"; "repair_request"; "repair";
     "evaluation_receipt"; "garbage" |]

let kind_index (payload : Lockss.Message.payload) =
  match payload with
  | Poll _ -> 0
  | Poll_ack _ -> 1
  | Poll_proof _ -> 2
  | Vote_msg _ -> 3
  | Repair_request _ -> 4
  | Repair _ -> 5
  | Evaluation_receipt _ -> 6
  | Garbage _ -> 7

let reasons = Array.of_list Lockss.Trace.all_reject_reasons

let reason_index r =
  let rec find i = if reasons.(i) = r then i else find (i + 1) in
  find 0

type t = {
  calls : int array;  (* per message kind *)
  self_s : float array;  (* per message kind, thread CPU *)
  words : float array;  (* per message kind, minor words *)
  nested : float array;  (* [| cpu_s; words |] spent in timed subscribers *)
  sink : float array;  (* [| cpu_s; words |] *)
  auditor : float array;  (* [| cpu_s; words |] *)
  rejected : int array;  (* per reject reason *)
}

let create () =
  {
    calls = Array.make (Array.length kinds) 0;
    self_s = Array.make (Array.length kinds) 0.;
    words = Array.make (Array.length kinds) 0.;
    nested = [| 0.; 0. |];
    sink = [| 0.; 0. |];
    auditor = [| 0.; 0. |];
    rejected = Array.make (Array.length reasons) 0;
  }

let wrap_handler p handler ~src (msg : Lockss.Message.t) =
  let k = kind_index msg.payload in
  let nested_s = p.nested.(0) and nested_w = p.nested.(1) in
  let w0 = Gc.minor_words () in
  let t0 = thread_cpu_s () in
  handler ~src msg;
  let t1 = thread_cpu_s () in
  let w1 = Gc.minor_words () in
  p.calls.(k) <- p.calls.(k) + 1;
  p.self_s.(k) <- p.self_s.(k) +. (t1 -. t0) -. (p.nested.(0) -. nested_s);
  p.words.(k) <- p.words.(k) +. (w1 -. w0) -. (p.nested.(1) -. nested_w)

(* [instrument_handlers p population] wraps every active loyal node. *)
let instrument_handlers p population =
  let net = (Lockss.Population.ctx population).Lockss.Peer.net in
  List.iter
    (fun node ->
      Narses.Net.register net node
        (wrap_handler p (Lockss.Population.default_handler population node)))
    (Lockss.Population.loyal_nodes population)

(* [observers p ~sink ~auditor] is one trace subscriber feeding the
   workload's binary sink, then its auditor — the order in which the bus
   calls them when subscribed separately — with three clock reads per
   event instead of four. It also tallies rejections: they are only
   visible as Debug trace events, which the bus builds only where a
   Debug subscriber such as this sink asks for them. *)
let observers p ~sink ~auditor ~time event =
  let w0 = Gc.minor_words () in
  let t0 = thread_cpu_s () in
  (match event with
  | Lockss.Trace.Message_rejected { reason; _ } ->
    let i = reason_index reason in
    p.rejected.(i) <- p.rejected.(i) + 1
  | _ -> ());
  sink ~time event;
  let t1 = thread_cpu_s () in
  let w1 = Gc.minor_words () in
  Check.Auditor.feed auditor ~time event;
  let t2 = thread_cpu_s () in
  let w2 = Gc.minor_words () in
  p.sink.(0) <- p.sink.(0) +. (t1 -. t0);
  p.sink.(1) <- p.sink.(1) +. (w1 -. w0);
  p.auditor.(0) <- p.auditor.(0) +. (t2 -. t1);
  p.auditor.(1) <- p.auditor.(1) +. (w2 -. w1);
  p.nested.(0) <- p.nested.(0) +. (t2 -. t0);
  p.nested.(1) <- p.nested.(1) +. (w2 -. w0)

let handler_self_s p = Array.fold_left ( +. ) 0. p.self_s

(* -- Spans ------------------------------------------------------------ *)

(* Coarse spans kept in memory and written when the benchmark ends:
   wall-clock start/end, thread CPU and engine events inside. *)
type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  mutable end_s : float;
  mutable cpu_s : float;
  mutable events : int;
}

let spans : span list ref = ref []
let origin = Monotonic.now_s ()

let with_span ?parent ?(events = fun () -> 0) name f =
  let span =
    {
      id = List.length !spans;
      parent = Option.map (fun s -> s.id) parent;
      name;
      start_s = Monotonic.now_s () -. origin;
      end_s = nan;
      cpu_s = nan;
      events = 0;
    }
  in
  spans := span :: !spans;
  let c0 = Monotonic.thread_cpu_s () and e0 = events () in
  let result = f span in
  span.end_s <- Monotonic.now_s () -. origin;
  span.cpu_s <- Monotonic.thread_cpu_s () -. c0;
  span.events <- events () - e0;
  result

(* [add_span ~parent name ~start_s ~end_s] records a span measured
   elsewhere (a sweep task timed on a worker domain). *)
let add_span ~parent name ~start_s ~end_s =
  spans :=
    { id = List.length !spans; parent = Some parent.id; name; start_s = start_s -. origin;
      end_s = end_s -. origin; cpu_s = nan; events = 0 }
    :: !spans

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          let num x = if Float.is_nan x then "null" else Printf.sprintf "%.9f" x in
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%s,\"name\":%S,\"start_s\":%s,\"end_s\":%s,\"cpu_s\":%s,\"events\":%d}\n"
            s.id
            (match s.parent with None -> "null" | Some i -> string_of_int i)
            s.name (num s.start_s) (num s.end_s) (num s.cpu_s) s.events)
        (List.rev !spans))
