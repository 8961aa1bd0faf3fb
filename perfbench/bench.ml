(* One repetition of a benchmark workload.

   Usage (from the repository root):
     _build/default/perfbench/bench.exe --workload steady-1k --seed 1 --trace 0

   Runs the workload once, untraced, and with [--trace 1] once more with
   every layer instrumented (probe.ml), and prints each run as one JSON
   line: its end-to-end timings, its per-layer metrics when traced, and
   the oracle's verdict (oracle.ml). [run.py] starts one such process
   per repetition, so every repetition gets a fresh heap and its own
   placement on the host, and reports medians across them. *)

module Monotonic = Repro_prelude.Monotonic
module Duration = Repro_prelude.Duration
module Stats = Repro_prelude.Stats
module Scenario = Experiments.Scenario
module Engine = Narses.Engine
module Net = Narses.Net

type opts = {
  workload : Workload.kind;
  size : Workload.size;
  seed : int;
  traced : bool;
  digest : string option;  (* overrides the pinned digest *)
}

(* Spans and the hostile workload's trace file go here; [run.py]
   creates it. *)
let out_dir = Filename.concat "perfbench" "out"

let size_name = function Workload.Full -> "full" | Workload.Toy -> "toy"
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* -- One repetition ----------------------------------------------------- *)

type rep = {
  setup_s : float;
  run_s : float;
  wall_s : float;
  alloc_mwords : float;
  peak_heap_mb : float;
  digest : string;
  attempted : int;
  problems : string list;  (* oracle failures; [] when correct *)
  failed : int;
  layers : (string * float) list;  (* per-layer metrics, traced runs only *)
}

let with_problems rep problems =
  if problems = [] then rep
  else { rep with problems = rep.problems @ problems; failed = rep.attempted }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let gc_layers ~(before : Gc.stat) ~(after : Gc.stat) =
  [
    ("gc.minor_collections", fi (after.minor_collections - before.minor_collections));
    ("gc.major_collections", fi (after.major_collections - before.major_collections));
    ("gc.promoted_mwords", (after.promoted_words -. before.promoted_words) /. 1e6);
  ]

(* Per-layer metrics of a traced single-population run. *)
let single_layers ~probe:(p : Probe.t) ~pop ~run_s ~(summary : Lockss.Metrics.summary)
    ~sink ~auditor ~leaks =
  let engine = Lockss.Population.engine pop in
  let st = Engine.stats engine in
  let net = (Lockss.Population.ctx pop).Lockss.Peer.net in
  let sink_s = p.sink.(0) and auditor_s = p.auditor.(0) in
  let engine_self_s = run_s -. Probe.handler_self_s p -. sink_s -. auditor_s in
  let live = Engine.live_by_class engine in
  (* In [Layers.fault_kinds] order. *)
  let fault_counts =
    match Lockss.Population.faults pop with
    | None -> List.map (fun _ -> 0) Layers.fault_kinds
    | Some f ->
      Narses.Faults.
        [
          dropped_count f; duplicated_count f; delayed_count f; corrupted_count f;
          replayed_count f; stale_count f; stray_count f;
        ]
  in
  let events, bytes =
    match sink with
    | None -> (0, 0)
    | Some (s, w) -> (Obs.Btrace.count w, Obs.Sink.written s + Obs.Sink.pending s)
  in
  let polls = summary.polls_succeeded + summary.polls_inquorate + summary.polls_alarmed in
  List.concat
    [
      [
        ("engine.executed", fi st.executed); ("engine.scheduled", fi st.scheduled);
        ("engine.cancelled", fi st.cancelled);
        ("engine.cancel_ratio", ratio (fi st.cancelled) (fi st.scheduled));
        ("engine.max_heap_depth", fi st.max_heap_depth);
        ("engine.self_s", engine_self_s);
        ("engine.ns_per_event", 1e9 *. ratio engine_self_s (fi st.executed));
      ];
      List.map
        (fun cls ->
          ("engine.live." ^ cls, fi (Option.value ~default:0 (List.assoc_opt cls live))))
        Layers.timer_classes;
      [
        ("net.sent", fi (Net.sent_count net)); ("net.delivered", fi (Net.delivered_count net));
        ("net.bytes_delivered", fi (Net.bytes_delivered net));
        ("net.delivery_ratio", ratio (fi (Net.delivered_count net)) (fi (Net.sent_count net)));
        ("net.dropped", fi (Net.dropped_count net));
        ("net.partition_dropped", fi (Net.partition_dropped_count net));
        ("net.fault_dropped", fi (Net.fault_dropped_count net));
        ("net.injected", fi (Net.injected_count net));
      ];
      List.map2 (fun k n -> ("faults." ^ k, fi n)) Layers.fault_kinds fault_counts;
      List.concat
        (List.mapi
           (fun i k ->
             [
               (Printf.sprintf "handler.%s.calls" k, fi p.calls.(i));
               (Printf.sprintf "handler.%s.self_s" k, p.self_s.(i));
               (Printf.sprintf "handler.%s.words_per_call" k, ratio p.words.(i) (fi p.calls.(i)));
             ])
           (Array.to_list Probe.kinds));
      List.mapi
        (fun i r -> ("handler.rejected." ^ Lockss.Trace.reject_reason_to_string r, fi p.rejected.(i)))
        (Array.to_list Probe.reasons);
      [
        ( "admission.admit_ratio",
          ratio
            (fi summary.invitations_considered)
            (fi (summary.invitations_considered + summary.invitations_dropped)) );
        ("poller.success_ratio", ratio (fi summary.polls_succeeded) (fi polls));
        ("voter.votes_supplied", fi summary.votes_supplied);
        ("trace.events", fi events); ("trace.sink_s", sink_s);
        ("trace.sink_words_per_event", ratio p.sink.(1) (fi events));
        ("trace.bytes", fi bytes); ("trace.bytes_per_event", ratio (fi bytes) (fi events));
        ("auditor.feed_s", auditor_s);
        ( "auditor.violations",
          fi (match auditor with None -> 0 | Some a -> Check.Auditor.violation_count a) );
        ("leak.findings", fi leaks);
      ];
    ]

(* Run one population to the horizon: untraced when [probe] is [None],
   otherwise with every layer instrumented, the run sliced per simulated
   month and spans recorded. *)
let run_single o ~probe =
  let kind = o.workload in
  let scale = Workload.scale kind o.size ~seed:o.seed in
  let cfg = Workload.config kind o.size ~seed:o.seed in
  let horizon = Duration.of_years scale.years in
  let attack = Workload.attack kind ~horizon in
  let traced = Option.is_some probe in
  (* Each repetition starts from the same compacted heap. *)
  Gc.compact ();
  let span ?parent ?events name f =
    if traced then Probe.with_span ?parent ?events name (fun s -> f (Some s)) else f None
  in
  span (Workload.name kind) @@ fun top ->
  let live0 = if traced then (Gc.stat ()).live_words else 0 in
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let wall0 = Monotonic.now_s () in
  let c0 = Monotonic.thread_cpu_s () in
  let pop = span ?parent:top "build" (fun _ -> Scenario.build ~cfg ~seed:o.seed attack) in
  let c1 = Monotonic.thread_cpu_s () in
  let setup_mw = Gc.minor_words () -. mw0 in
  let gc1 = Gc.quick_stat () in
  let live1 = if traced then (Gc.stat ()).live_words else 0 in
  let trace = Lockss.Population.trace pop in
  (* The hostile workload's own outputs: a Debug-level binary trace and
     an online invariant auditor, subscribed as [Scenario.run_one]
     does (auditor first). *)
  let observers =
    match kind with
    | Workload.Steady | Workload.Bootstrap | Workload.Sweep -> None
    | Workload.Hostile ->
      let path =
        Filename.concat out_dir (Printf.sprintf "hostile-seed%d.ntrace" o.seed)
      in
      let sink = Obs.Sink.open_file ~flush_interval:(Duration.of_days 30.) path in
      let writer = Obs.Btrace.writer sink in
      let auditor = Scenario.make_auditor ~cfg () in
      let trace_sink = Lockss.Trace.binary_sink ~min_severity:Lockss.Trace.Debug writer in
      (match probe with
      | None ->
        Check.Auditor.attach auditor trace;
        Lockss.Trace.subscribe trace trace_sink
      | Some p -> Lockss.Trace.subscribe trace (Probe.observers p ~sink:trace_sink ~auditor));
      Some (path, sink, writer, auditor)
  in
  Option.iter (fun p -> Probe.instrument_handlers p pop) probe;
  let engine = Lockss.Population.engine pop in
  let c2 = Monotonic.thread_cpu_s () in
  (if traced then
     span ?parent:top ~events:(fun () -> Engine.executed engine) "run" (fun run ->
         let month = Duration.of_years (1. /. 12.) in
         let slices = int_of_float (Float.ceil (horizon /. month)) in
         for k = 1 to slices do
           span ?parent:run ~events:(fun () -> Engine.executed engine)
             (Printf.sprintf "month-%d" k)
             (fun _ -> Lockss.Population.run pop ~until:(Float.min horizon (fi k *. month)))
         done)
   else Lockss.Population.run pop ~until:horizon);
  let c3 = Monotonic.thread_cpu_s () in
  let summary = Lockss.Population.summary pop in
  Option.iter
    (fun (_, sink, _, auditor) ->
      Check.Auditor.finish ~metrics:summary auditor;
      Obs.Sink.close sink)
    observers;
  let wall1 = Monotonic.now_s () in
  let mw1 = Gc.minor_words () in
  let gc2 = Gc.quick_stat () in
  let run_s = c3 -. c2 in
  let leaks =
    Check.Leak.audit ~engine ~ctx:(Lockss.Population.ctx pop) |> List.length
  in
  let violations =
    match observers with
    | None -> 0
    | Some (_, _, _, auditor) -> Check.Auditor.violation_count auditor
  in
  let layers =
    match probe with
    | None -> []
    | Some p ->
      let sink = Option.map (fun (_, s, w, _) -> (s, w)) observers in
      let auditor = Option.map (fun (_, _, _, a) -> a) observers in
      [
        ("setup.alloc_mwords", setup_mw /. 1e6);
        ("setup.live_mb", mb_of_words (fi (live1 - live0)));
        ("setup.major_collections", fi (gc1.major_collections - gc0.major_collections));
        ("trace.run_s", run_s);
      ]
      @ single_layers ~probe:p ~pop ~run_s ~summary ~sink ~auditor ~leaks
      @ gc_layers ~before:gc1 ~after:gc2
  in
  Option.iter (fun (path, _, _, _) -> Sys.remove path) observers;
  (* More set-ups once the run is measured, so [setup_s] is a median. *)
  let setups =
    (c1 -. c0)
    :: List.init (if traced then 0 else Workload.extra_setups kind) (fun _ ->
           let c0 = Monotonic.thread_cpu_s () in
           ignore (Sys.opaque_identity (Scenario.build ~cfg ~seed:o.seed attack));
           Monotonic.thread_cpu_s () -. c0)
  in
  let digest = Oracle.summary_digest summary in
  let problems =
    Oracle.summary_problems ~scale ~cfg summary
    @ (if leaks = 0 then [] else [ Printf.sprintf "%d leak-audit findings" leaks ])
    @ if violations = 0 then [] else [ Printf.sprintf "%d auditor violations" violations ]
  in
  with_problems
    {
      setup_s = Stats.percentile 50. setups;
      run_s;
      wall_s = wall1 -. wall0;
      alloc_mwords = (mw1 -. mw0) /. 1e6;
      peak_heap_mb = mb_of_words (fi gc2.top_heap_words);
      digest;
      attempted = 1;
      problems = [];
      failed = 0;
      layers;
    }
    problems

(* The stoppage sweep on the domain pool. Untraced it is exactly
   [Stoppage.sweep]; traced, the same jobs go through [Runner.map] with
   a per-task timer and a profiler, and must give the same rows. *)
let run_sweep o ~traced ~top =
  let scale = Workload.scale Workload.Sweep o.size ~seed:o.seed in
  let cfg = Scenario.config scale in
  let durations, coverages, grid = Workload.sweep_grid o.size in
  let attacks =
    Scenario.No_attack
    :: List.map
         (fun (coverage, duration) ->
           Scenario.Pipe_stoppage
             { coverage; duration; recuperation = Duration.of_days 30. })
         grid
  in
  Experiments.Runner.set_jobs Workload.sweep_jobs;
  Gc.compact ();
  (* Set-up: the population builds the sweep performs, one per job and
     seed, timed serially on this domain; the median of several rounds. *)
  let setup_round () =
    List.fold_left
      (fun acc attack ->
        List.fold_left
          (fun acc i ->
            let c0 = Monotonic.thread_cpu_s () in
            ignore (Sys.opaque_identity (Scenario.build ~cfg ~seed:(o.seed + i) attack));
            acc +. (Monotonic.thread_cpu_s () -. c0))
          acc
          (List.init scale.runs Fun.id))
      0. attacks
  in
  let setup_s =
    Stats.percentile 50. (List.init (1 + Workload.extra_setups Workload.Sweep) (fun _ -> setup_round ()))
  in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let wall0 = Monotonic.now_s () in
  let cpu0 = Sys.time () in
  let rows, layers =
    if not traced then (Experiments.Stoppage.sweep ~scale ~durations ~coverages (), [])
    else begin
      let profiler = Obs.Profiler.create () in
      let n = List.length attacks in
      let starts = Array.make n nan and ends = Array.make n nan in
      Experiments.Runner.set_profiler (Some profiler);
      let summaries =
        Fun.protect
          ~finally:(fun () -> Experiments.Runner.set_profiler None)
          (fun () ->
            Experiments.Runner.map
              (fun (i, attack) ->
                starts.(i) <- Monotonic.now_s ();
                let s = Scenario.run_avg ~cfg scale attack in
                ends.(i) <- Monotonic.now_s ();
                s)
              (List.mapi (fun i a -> (i, a)) attacks))
      in
      let wall = Monotonic.now_s () -. wall0 in
      let rows =
        match summaries with
        | [] -> assert false
        | baseline :: attacked ->
          List.map2
            (fun (coverage, duration) attack ->
              let c = Scenario.ratios ~baseline ~attack in
              {
                Experiments.Stoppage.coverage;
                duration;
                access_failure = c.access_failure;
                delay_ratio = c.delay_ratio;
                friction = c.friction;
              })
            grid attacked
      in
      let task_s = List.init n (fun i -> ends.(i) -. starts.(i)) in
      Option.iter
        (fun parent ->
          Array.iteri
            (fun i start_s ->
              Probe.add_span ~parent (Printf.sprintf "task-%d" i) ~start_s ~end_s:ends.(i))
            starts)
        top;
      let slots = Obs.Profiler.domain_stats profiler in
      let slot i =
        List.find_opt (fun (d : Obs.Profiler.domain_stat) -> d.domain = i) slots
      in
      let busy = List.fold_left (fun acc (d : Obs.Profiler.domain_stat) -> acc +. d.busy_s) 0. slots in
      ( rows,
        [
          ("runner.tasks", fi n);
          ("runner.task_s.p50", Stats.percentile 50. task_s);
          ("runner.task_s.p90", Stats.percentile 90. task_s);
          ("runner.task_s.max", List.fold_left Float.max 0. task_s);
          ("runner.idle_frac", 1. -. ratio busy (fi Workload.sweep_jobs *. wall));
        ]
        @ List.concat_map
            (fun i ->
              let busy, cpu =
                match slot i with None -> (0., 0.) | Some d -> (d.busy_s, d.cpu_s)
              in
              [
                (Printf.sprintf "runner.slot%d.busy_s" i, busy);
                (Printf.sprintf "runner.slot%d.cpu_s" i, cpu);
              ])
            [ 0; 1 ] )
    end
  in
  let run_s = Sys.time () -. cpu0 in
  let wall_s = Monotonic.now_s () -. wall0 in
  let gc1 = Gc.quick_stat () in
  let layers =
    if traced then (("trace.run_s", run_s) :: layers) @ gc_layers ~before:gc0 ~after:gc1
    else []
  in
  let problems = List.concat_map Oracle.row_problems rows in
  let cells = List.length rows in
  {
    setup_s;
    run_s;
    wall_s;
    alloc_mwords = (gc1.minor_words -. gc0.minor_words) /. 1e6;
    peak_heap_mb = mb_of_words (fi gc1.top_heap_words);
    digest = Oracle.rows_digest rows;
    attempted = cells;
    problems;
    failed = min cells (List.length problems);
    layers;
  }

let run_rep o ~traced =
  match o.workload with
  | Workload.Sweep ->
    if traced then
      Probe.with_span (Workload.name o.workload) (fun top ->
          run_sweep o ~traced ~top:(Some top))
    else run_sweep o ~traced ~top:None
  | Workload.Steady | Workload.Hostile | Workload.Bootstrap ->
    run_single o ~probe:(if traced then Some (Probe.create ()) else None)

(* -- Output -------------------------------------------------------------- *)

(* One repetition as one JSON object; [run.py] aggregates repetitions. *)
let rep_json (o : opts) ~traced r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let expected =
    Oracle.expected ~override:o.digest ~workload:(Workload.name o.workload)
      ~size:(size_name o.size) ~seed:o.seed
  in
  let r = with_problems r (Oracle.digest_problems ~expected r.digest) in
  let layers =
    if not traced then []
    else
      List.map
        (fun (name, unit) ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
            (num (Option.value ~default:0. (List.assoc_opt name r.layers)))
            unit)
        Layers.all
  in
  Printf.sprintf
    "{\"traced\": %b, \"digest\": %S, \"attempted\": %d, \"failed\": %d, \"problems\": [%s], \
     \"setup_s\": %s, \"run_s\": %s, \"wall_s\": %s, \"alloc_mwords\": %s, \
     \"peak_heap_mb\": %s, \"replica_years\": %s, \"layers\": {%s}}"
    traced r.digest r.attempted r.failed
    (String.concat ", " (List.map (Printf.sprintf "%S") r.problems))
    (num r.setup_s) (num r.run_s) (num r.wall_s) (num r.alloc_mwords) (num r.peak_heap_mb)
    (num (Workload.replica_years o.workload o.size))
    (String.concat ", " layers)

(* One untraced repetition, then with [--trace 1] a traced one in the
   same process, each printed as a JSON line. *)
let main o =
  let untraced = run_rep o ~traced:false in
  print_endline (rep_json o ~traced:false untraced);
  if o.traced then begin
    let traced = run_rep o ~traced:true in
    let traced =
      {
        traced with
        layers =
          ("trace.overhead_s", traced.run_s -. untraced.run_s)
          :: ("trace.overhead_mwords", traced.alloc_mwords -. untraced.alloc_mwords)
          :: traced.layers;
      }
    in
    print_endline (rep_json o ~traced:true traced);
    Probe.write_spans
      (Filename.concat out_dir
         (Printf.sprintf "spans-%s-seed%d.jsonl" (Workload.name o.workload) o.seed))
  end

let () =
  let workload = ref "" and seed = ref Oracle.default_seed and trace = ref 0 in
  let calibrate = ref false in
  let size = ref "full" and digest = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " steady-1k | hostile-audited | bootstrap-5k | sweep-pool");
      ("--seed", Arg.Set_int seed, " workload seed (default 1; pinned digests apply there)");
      ("--trace", Arg.Set_int trace, " 0: untraced run; 1: untraced then traced run");
      ("--size", Arg.Set_string size, " full (default) | toy");
      ("--digest", Arg.Set_string digest, " expected digest, overriding the pinned one");
      ("--calibrate", Arg.Set calibrate, " only time the calibration kernel, on the workload's domains");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--trace 0|1] [--size full|toy]";
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  let workload =
    match Workload.of_name !workload with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  if !calibrate then begin
    Printf.printf "{\"calib_s\": %.17g}\n" (Calib.measure ~domains:(Workload.domains workload));
    exit 0
  end;
  let size =
    match !size with
    | "full" -> Workload.Full
    | "toy" -> Workload.Toy
    | s -> fail ("unknown size " ^ s)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  main
    {
      workload;
      size;
      seed = !seed;
      traced = !trace = 1;
      digest = (if !digest = "" then None else Some !digest);
    }
