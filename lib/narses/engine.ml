(* The event loop's hot path is [schedule] + [step]: every simulated
   message, timer and sample goes through both once. The queue is a
   {!Repro_prelude.Tsheap} — flat unboxed (time, seq) lanes, so a sift
   comparison is two scalar reads and no closure call — and the only
   per-event allocation left on this side is the 4-word handle record
   below (the caller's action closure already exists). The previous
   representation paid, per event: a 6-field mixed record plus the boxed
   float inside it on [schedule], a closure-indirected polymorphic
   compare per sift step, and a [Some] per peek/pop. *)

(* The schedule handle doubles as the heap payload: [cancel] flips
   [live] and the queue drops dead entries lazily when they surface. *)
type event = { action : unit -> unit; cls : int; mutable live : bool }

type event_id = event
type cls = int

let dummy_event = { action = ignore; cls = 0; live = false }

(* Class names are registered once, globally, at module-initialisation
   time (timer owners register their class in a top-level [let]); each
   engine keeps an int array of live counts indexed by class id, so the
   per-event bookkeeping stays a single array bump. Class 0 is the
   implicit "unlabeled" class for callers that pass no [?cls].

   The registry is guarded by a mutex: registration is documented as
   module-init-only, but a library loaded late (or a test registering
   from a worker domain) must get a unique id and a consistent name
   table rather than undefined behaviour. Reads on the engine hot path
   never touch the registry — [create] snapshots the count under the
   lock and [bump_cls] grows the engine-local array lazily. *)
let class_mutex = Mutex.create ()
let class_names = ref [| "unlabeled" |]
let class_count = ref 1

let register_class name =
  Mutex.protect class_mutex (fun () ->
      let id = !class_count in
      let old = !class_names in
      let n = Array.length old in
      if id >= n then begin
        let bigger = Array.make (max 4 (2 * n)) "" in
        Array.blit old 0 bigger 0 n;
        class_names := bigger
      end;
      !class_names.(id) <- name;
      incr class_count;
      id)

(* A consistent (names, count) pair for readers; the names array is
   only ever grown, never shrunk, so the snapshot stays valid. *)
let class_snapshot () =
  Mutex.protect class_mutex (fun () -> (!class_names, !class_count))

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable cancelled : int;
  mutable live_count : int;
  mutable max_heap_depth : int;
  mutable live_by_cls : int array;
  queue : event Repro_prelude.Tsheap.t;
}

let create () =
  let _, count = class_snapshot () in
  {
    clock = 0.;
    next_seq = 0;
    executed = 0;
    cancelled = 0;
    live_count = 0;
    max_heap_depth = 0;
    live_by_cls = Array.make count 0;
    queue = Repro_prelude.Tsheap.create ~dummy:dummy_event ();
  }

let now t = t.clock

let grow_cls t cls =
  let n = Array.length t.live_by_cls in
  (* A class registered after this engine was created; grow lazily. *)
  let _, count = class_snapshot () in
  let bigger = Array.make (max count (cls + 1)) 0 in
  Array.blit t.live_by_cls 0 bigger 0 n;
  t.live_by_cls <- bigger

let[@inline] bump_cls t cls delta =
  if cls >= Array.length t.live_by_cls then grow_cls t cls;
  t.live_by_cls.(cls) <- t.live_by_cls.(cls) + delta

let schedule ?(cls = 0) t ~at f =
  (* [not (at >= clock)] rather than [at < clock]: it also rejects NaN,
     which would corrupt the heap's strict ordering. *)
  if not (at >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%g precedes now=%g" at t.clock);
  let ev = { action = f; cls; live = true } in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live_count <- t.live_count + 1;
  bump_cls t cls 1;
  Repro_prelude.Tsheap.add t.queue ~time:at ~seq ev;
  let depth = Repro_prelude.Tsheap.length t.queue in
  if depth > t.max_heap_depth then t.max_heap_depth <- depth;
  ev

let schedule_in ?cls t ~after f =
  if after < 0. then invalid_arg "Engine.schedule_in: negative delay";
  schedule ?cls t ~at:(t.clock +. after) f

let cancel t ev =
  if ev.live then begin
    ev.live <- false;
    t.live_count <- t.live_count - 1;
    bump_cls t ev.cls (-1);
    t.cancelled <- t.cancelled + 1
  end

let pending t = t.live_count
let is_live (ev : event_id) = ev.live

let live_by_class t =
  let names, count = class_snapshot () in
  let out = ref [] in
  for cls = count - 1 downto 1 do
    let n =
      if cls < Array.length t.live_by_cls then t.live_by_cls.(cls) else 0
    in
    out := (names.(cls), n) :: !out
  done;
  !out

(* Fire the queue's minimum event (which must exist and be live):
   shared by [step] and the [run_until] loop. *)
let[@inline] fire t ev =
  ev.live <- false;
  t.live_count <- t.live_count - 1;
  bump_cls t ev.cls (-1);
  t.clock <- Repro_prelude.Tsheap.min_time t.queue;
  t.executed <- t.executed + 1;
  Repro_prelude.Tsheap.drop_min t.queue;
  ev.action ()

let step t =
  if Repro_prelude.Tsheap.is_empty t.queue then false
  else begin
    let ev = Repro_prelude.Tsheap.min_payload t.queue in
    if ev.live then fire t ev else Repro_prelude.Tsheap.drop_min t.queue;
    true
  end

exception Event_limit_exceeded of string

let limit_exceeded t budget =
  raise
    (Event_limit_exceeded
       (Printf.sprintf
          "Engine: event budget %d exhausted at t=%g with %d events pending \
           (likely a self-scheduling loop)"
          budget t.clock t.live_count))

let run_until ?max_events t ~limit =
  let queue = t.queue in
  (* The budget counts live executions only. Cancelled heads are drained
     for free *before* the budget check, so an exactly-exhausted budget
     whose remaining in-horizon events are all dead finishes normally
     instead of tripping — the check fires only when a live event within
     [limit] is actually about to run. *)
  (match max_events with
  | None ->
    let continue_ = ref true in
    while !continue_ do
      if Repro_prelude.Tsheap.is_empty queue then continue_ := false
      else begin
        let ev = Repro_prelude.Tsheap.min_payload queue in
        if not ev.live then Repro_prelude.Tsheap.drop_min queue
        else if Repro_prelude.Tsheap.min_time queue > limit then
          (* Leave future events queued; just advance the clock. *)
          continue_ := false
        else fire t ev
      end
    done
  | Some budget ->
    let start = t.executed in
    let continue_ = ref true in
    while !continue_ do
      if Repro_prelude.Tsheap.is_empty queue then continue_ := false
      else begin
        let ev = Repro_prelude.Tsheap.min_payload queue in
        if not ev.live then Repro_prelude.Tsheap.drop_min queue
        else if Repro_prelude.Tsheap.min_time queue > limit then continue_ := false
        else begin
          if t.executed - start >= budget then limit_exceeded t budget;
          fire t ev
        end
      end
    done);
  if limit > t.clock then t.clock <- limit

let run ?max_events t =
  match max_events with
  | None -> while step t do () done
  | Some budget ->
    let start = t.executed in
    let rec loop () =
      if t.executed - start >= budget && t.live_count > 0 then
        limit_exceeded t budget
      else if step t then loop ()
    in
    loop ()

let executed t = t.executed

type stats = {
  executed : int;
  scheduled : int;
  cancelled : int;
  pending : int;
  max_heap_depth : int;
}

let stats (t : t) =
  {
    executed = t.executed;
    scheduled = t.next_seq;
    cancelled = t.cancelled;
    pending = t.live_count;
    max_heap_depth = t.max_heap_depth;
  }
