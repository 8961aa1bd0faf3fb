(* Tests for the observability layer: JSON round-trips, trace sinks and
   the ring recorder, the time-series writer, the
   periodic sampler, engine profiling stats and the hardened metric
   transitions. *)

module Duration = Repro_prelude.Duration
module Engine = Narses.Engine
module Json = Obs.Json
module Series = Obs.Series
open Lockss

(* -- Json --------------------------------------------------------------- *)

let test_json_round_trip () =
  let value =
    Json.Assoc
      [
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("s", Json.String "with \"quotes\", commas\nand newlines");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int (-2); Json.Float 0.25 ]);
        ("o", Json.Assoc [ ("nested", Json.Bool false) ]);
      ]
  in
  match Json.of_string (Json.to_string value) with
  | Ok parsed -> Alcotest.(check bool) "round trip" true (parsed = value)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,]"; "{\"a\" 1}"; "nulll"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_numbers () =
  (match Json.of_string "-17" with
  | Ok (Json.Int -17) -> ()
  | _ -> Alcotest.fail "int literal");
  (match Json.of_string "2.5e3" with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "exp float" 2500. f
  | _ -> Alcotest.fail "float literal");
  match Json.of_string "604800" with
  | Ok v -> Alcotest.(check (float 0.)) "to_float widens" 604800. (Option.get (Json.to_float v))
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_json_escapes () =
  let s = "tab\tnewline\ncr\rquote\"backslash\\ctrl\x01\x1f" in
  (match Json.of_string (Json.to_string (Json.String s)) with
  | Ok (Json.String s') -> Alcotest.(check string) "escaped string survives" s s'
  | _ -> Alcotest.fail "string round trip");
  (* Control characters must leave the line printable (escaped, not raw). *)
  String.iter
    (fun c ->
      if Char.code c < 0x20 then Alcotest.failf "raw control char %C in output" c)
    (Json.to_string (Json.String s))

let test_json_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite renders null" "null"
        (Json.to_string (Json.Float f)))
    [ nan; infinity; neg_infinity ];
  match Json.of_string (Json.to_string (Json.List [ Json.Float nan; Json.Int 1 ])) with
  | Ok (Json.List [ Json.Null; Json.Int 1 ]) -> ()
  | _ -> Alcotest.fail "nan inside a list becomes null"

(* Parallel sweeps render trace literals on several domains at once;
   each domain must get exactly the digits of its own values. *)
let test_json_float_literals_across_domains () =
  let values =
    Array.init 20_000 (fun i ->
        (float_of_int (i + 1) *. 0.123456789012345) +. (1. /. float_of_int (i + 7)))
  in
  let render () = Array.map Json.float_literal values in
  let expected = render () in
  let workers = List.init 2 (fun _ -> Domain.spawn render) in
  let here = render () in
  List.iter
    (fun literals ->
      Alcotest.(check bool) "same literals as a serial rendering" true (literals = expected))
    (here :: List.map Domain.join workers)

let test_json_deep_nesting () =
  let rec build depth =
    if depth = 0 then Json.Int 7
    else Json.Assoc [ ("child", Json.List [ build (depth - 1); Json.String "x" ]) ]
  in
  let v = build 40 in
  match Json.of_string (Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "deep structure" true (parsed = v)
  | Error msg -> Alcotest.failf "parse: %s" msg

(* -- Trace taxonomy, round-trip, sinks ---------------------------------- *)

let sample_events =
  [
    Trace.Poll_started { poller = 3; au = 1; poll_id = 7; inner_candidates = 9 };
    Trace.Solicitation_sent { poller = 3; voter = 5; au = 1; poll_id = 7; attempt = 2 };
    Trace.Invitation_dropped
      { voter = 5; claimed = 12; au = 0; poll_id = 4; reason = Admission.Refractory };
    Trace.Invitation_admitted
      {
        voter = 5;
        claimed = 3;
        au = 1;
        poll_id = Some 7;
        path = Trace.Admitted_known Grade.Even;
      };
    Trace.Invitation_refused { voter = 5; poller = 3; au = 1; poll_id = 7 };
    Trace.Invitation_accepted { voter = 5; poller = 3; au = 1; poll_id = 7 };
    Trace.Vote_sent { voter = 5; poller = 3; au = 1; poll_id = 7 };
    Trace.Poll_sampled
      { poller = 3; au = 1; poll_id = 7; invited = [ 5; 6 ]; reference = [ 5; 6; 8 ] };
    Trace.Evaluation_started { poller = 3; au = 1; poll_id = 7; votes = 6 };
    Trace.Repair_applied
      { poller = 3; au = 1; poll_id = 7; block = 4; version = 99; clean = true };
    Trace.Poll_concluded { poller = 3; au = 1; poll_id = 7; outcome = Metrics.Alarmed };
    Trace.Effort_charged
      {
        peer = 5;
        role = Trace.Loyal;
        phase = Trace.Voting;
        poller = Some 3;
        au = Some 1;
        poll_id = Some 7;
        seconds = 432.5;
      };
    Trace.Effort_received
      { peer = 3; from_ = 5; phase = Trace.Voting; au = 1; poll_id = 7; seconds = 12.25 };
    Trace.Message_rejected
      {
        peer = 3;
        from_ = 5;
        au = 1;
        poll_id = Some 7;
        msg_kind = "vote";
        reason = Trace.Uninvited;
      };
    Trace.Fault_dropped { src = 3; dst = 5 };
    Trace.Fault_duplicated { src = 3; dst = 5 };
    Trace.Fault_delayed { src = 3; dst = 5; extra = 0.25 };
    Trace.Partition_dropped { src = 3; dst = 5 };
    Trace.Fault_corrupted { src = 3; dst = 5 };
    Trace.Fault_replayed { src = 3; dst = 5; extra = 42.5 };
    Trace.Fault_stale { src = 3; dst = 5; extra = 259200. };
    Trace.Fault_stray { src = 9; dst = 5 };
    Trace.Node_crashed { node = 5 };
    Trace.Node_restarted { node = 5 };
    Trace.Invariant_violated
      {
        invariant = "refractory";
        peer = Some 5;
        au = Some 1;
        poll_id = None;
        detail = "two admissions 3.2s apart";
      };
  ]

let test_trace_jsonl_round_trip () =
  (* Every event kind survives to_json -> to_string -> of_string -> of_json. *)
  List.iteri
    (fun i event ->
      let time = 1000. *. float_of_int (i + 1) in
      let line = Json.to_string (Trace.to_json ~time event) in
      match Json.of_string line with
      | Error msg -> Alcotest.failf "%s: bad JSON: %s" (Trace.kind event) msg
      | Ok json ->
        (match Trace.of_json json with
        | Error msg -> Alcotest.failf "%s: bad event: %s" (Trace.kind event) msg
        | Ok (time', event') ->
          Alcotest.(check (float 1e-9)) (Trace.kind event ^ " time") time time';
          Alcotest.(check bool) (Trace.kind event ^ " event") true (event = event')))
    sample_events;
  Alcotest.(check int) "all kinds exercised" (List.length Trace.all_kinds)
    (List.length sample_events)

(* The decoder's error paths, checked against [to_json] output with one
   member removed or altered. The optional members are listed here by
   hand so the test stays independent of the codec's own schema. *)
let test_trace_decode_errors () =
  let optional_keys = function
    | "invitation_admitted" | "message_rejected" -> [ "poll_id" ]
    | "effort_charged" -> [ "poller"; "au"; "poll_id" ]
    | "invariant_violated" -> [ "peer"; "au"; "poll_id" ]
    | _ -> []
  in
  let enum_keys = [ "reason"; "path"; "outcome"; "role"; "phase" ] in
  let members = function Json.Assoc fields -> fields | _ -> assert false in
  let without key json =
    Json.Assoc (List.filter (fun (k, _) -> k <> key) (members json))
  in
  let with_value key v json =
    Json.Assoc (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) (members json))
  in
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let expect_error what ~naming json =
    match Trace.of_json json with
    | Ok _ -> Alcotest.failf "%s: decoded" what
    | Error msg ->
      if not (contains msg (Printf.sprintf "%S" naming)) then
        Alcotest.failf "%s: error %S does not name %S" what msg naming
  in
  List.iteri
    (fun i event ->
      let time = 100. *. float_of_int (i + 1) in
      let json = Trace.to_json ~time event in
      let kind = Trace.kind event in
      let optional = optional_keys kind in
      List.iter
        (fun (key, _) ->
          let what = Printf.sprintf "%s without %s" kind key in
          if key = "severity" then
            (* Derived from the event on decode, never read. *)
            Alcotest.(check bool) what true
              (Trace.of_json (without key json) = Ok (time, event))
          else if List.mem key optional then
            List.iter
              (fun altered ->
                match Trace.of_json altered with
                | Error msg -> Alcotest.failf "%s: %s" what msg
                | Ok (_, decoded) ->
                  Alcotest.(check bool)
                    (what ^ " decodes to None")
                    true
                    (Trace.to_json ~time decoded = without key json))
              [ without key json; with_value key Json.Null json ]
          else expect_error what ~naming:key (without key json);
          if List.mem key enum_keys then
            expect_error (kind ^ " with unknown " ^ key) ~naming:key
              (with_value key (Json.String "no_such_token") json))
        (members json);
      match Trace.of_json (with_value "kind" (Json.String "no_such_kind") json) with
      | Ok _ -> Alcotest.failf "%s: unknown kind decoded" kind
      | Error _ -> ())
    sample_events

let test_trace_sink_fanout () =
  let trace = Trace.create () in
  let seen_a = ref 0 and seen_b = ref 0 in
  Trace.subscribe trace (fun ~time:_ _ -> incr seen_a);
  Trace.subscribe trace (fun ~time:_ _ -> incr seen_b);
  let warn_lines = Buffer.create 256 in
  Trace.subscribe trace
    (Trace.pretty_sink ~min_severity:Trace.Warn (Format.formatter_of_buffer warn_lines));
  List.iter (fun e -> Trace.emit trace ~now:1. (fun () -> e)) sample_events;
  Alcotest.(check int) "first sink" (List.length sample_events) !seen_a;
  Alcotest.(check int) "second sink" (List.length sample_events) !seen_b;
  (* The Alarmed conclusion and the invariant violation are the only
     warn-severity events in the sample set. *)
  Alcotest.(check int) "warn-level sink" 2
    (List.length (String.split_on_char '\n' (String.trim (Buffer.contents warn_lines))))

let test_trace_severity_order () =
  Alcotest.(check bool) "debug below info" true (Trace.Debug < Trace.Info);
  Alcotest.(check bool) "info below warn" true (Trace.Info < Trace.Warn);
  List.iter
    (fun s ->
      let name = Trace.severity_to_string s in
      Alcotest.(check bool) ("round trip " ^ name) true
        (Trace.severity_of_string name = Some s))
    [ Trace.Debug; Trace.Info; Trace.Warn ]

let test_recorder_counts_drops () =
  let trace = Trace.create () in
  let get = Trace.recorder ~capacity:10 trace in
  for i = 1 to 25 do
    Trace.emit trace ~now:(float_of_int i) (fun () ->
        Trace.Poll_started { poller = i; au = 0; poll_id = i; inner_candidates = 0 })
  done;
  let record = get () in
  Alcotest.(check int) "retained" 10 (List.length record.Trace.events);
  Alcotest.(check int) "dropped" 15 record.Trace.dropped;
  (* The ring keeps the most recent events: 16..25. *)
  let times = List.map fst record.Trace.events in
  Alcotest.(check (list (float 1e-9))) "newest retained"
    (List.init 10 (fun i -> float_of_int (16 + i)))
    times

let test_recorder_under_capacity_drops_nothing () =
  let trace = Trace.create () in
  let get = Trace.recorder ~capacity:100 trace in
  for i = 1 to 7 do
    Trace.emit trace ~now:(float_of_int i) (fun () ->
        Trace.Vote_sent { voter = 1; poller = 2; au = 0; poll_id = i })
  done;
  let record = get () in
  Alcotest.(check int) "retained" 7 (List.length record.Trace.events);
  Alcotest.(check int) "dropped" 0 record.Trace.dropped

(* -- Series -------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "obs_test" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

let test_series_csv () =
  with_temp_file (fun path ->
      let series =
        Series.create ~format:Series.Csv ~columns:[ "t"; "x"; "label" ]
          (Obs.Sink.open_file path)
      in
      Series.append series [ Json.Float 1.5; Json.Int 2; Json.String "plain" ];
      Series.append series [ Json.Float 2.5; Json.Int 3; Json.String "needs,\"quoting\"" ];
      Series.close series;
      match read_lines path with
      | [ header; row1; row2 ] ->
        Alcotest.(check string) "header" "t,x,label" header;
        Alcotest.(check string) "row" "1.5,2,plain" row1;
        Alcotest.(check string) "quoted row" "2.5,3,\"needs,\"\"quoting\"\"\"" row2
      | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines))

let test_series_jsonl () =
  with_temp_file (fun path ->
      let series =
        Series.create ~format:Series.Jsonl ~columns:[ "t"; "x" ]
          (Obs.Sink.open_file path)
      in
      Series.append series [ Json.Float 1.; Json.Int 10 ];
      Series.append series [ Json.Float 2.; Json.Int 20 ];
      Series.close series;
      let rows =
        List.map
          (fun line -> Result.get_ok (Json.of_string line))
          (read_lines path)
      in
      Alcotest.(check int) "rows" 2 (List.length rows);
      Alcotest.(check (option int)) "column value" (Some 20)
        (Option.bind (Json.member "x" (List.nth rows 1)) Json.to_int))

let test_series_format_of_path () =
  Alcotest.(check bool) "jsonl" true (Series.format_of_path "a/b.jsonl" = Series.Jsonl);
  Alcotest.(check bool) "json" true (Series.format_of_path "B.JSON" = Series.Jsonl);
  Alcotest.(check bool) "csv" true (Series.format_of_path "out.csv" = Series.Csv);
  Alcotest.(check bool) "other" true (Series.format_of_path "out.dat" = Series.Csv)

(* -- Sampler ------------------------------------------------------------- *)

let test_sampler_tick_alignment () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~replicas:10 ~start:0. in
  let times = ref [] in
  let sampler =
    Sampler.attach ~engine ~metrics ~interval:10. (fun s ->
        times := s.Metrics.time :: !times)
  in
  (* Samples at 10,20,...,100 all fire inside run_until ~limit:100. *)
  Engine.run_until engine ~limit:100.;
  Alcotest.(check int) "ticks" 10 (Sampler.ticks sampler);
  Alcotest.(check (list (float 1e-9))) "aligned times"
    (List.init 10 (fun i -> 10. *. float_of_int (i + 1)))
    (List.rev !times);
  (* A partial trailing interval produces no sample. *)
  Engine.run_until engine ~limit:105.;
  Alcotest.(check int) "no partial tick" 10 (Sampler.ticks sampler);
  Engine.run_until engine ~limit:110.;
  Alcotest.(check int) "next full tick" 11 (Sampler.ticks sampler);
  Sampler.stop sampler;
  Engine.run_until engine ~limit:200.;
  Alcotest.(check int) "stopped" 11 (Sampler.ticks sampler)

let test_sampler_sees_metric_changes () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~replicas:10 ~start:0. in
  let damaged = ref [] in
  let _sampler =
    Sampler.attach ~engine ~metrics ~interval:10. (fun s ->
        damaged := s.Metrics.damaged_replicas :: !damaged)
  in
  ignore (Engine.schedule engine ~at:5. (fun () -> Metrics.on_replica_damaged metrics ~now:5.));
  ignore
    (Engine.schedule engine ~at:15. (fun () -> Metrics.on_replica_repaired metrics ~now:15.));
  Engine.run_until engine ~limit:20.;
  Alcotest.(check (list int)) "damage then repair visible" [ 1; 0 ] (List.rev !damaged)

let test_sampler_series_writer_deltas () =
  with_temp_file (fun path ->
      let series =
        Series.create ~format:Series.Jsonl ~columns:Sampler.columns
          (Obs.Sink.open_file path)
      in
      let writer = Sampler.series_writer ~seed:3 series in
      let metrics = Metrics.create ~replicas:10 ~start:0. in
      Metrics.on_invitation_considered metrics;
      Metrics.on_invitation_considered metrics;
      writer (Metrics.sample metrics ~now:Duration.day);
      Metrics.on_invitation_considered metrics;
      writer (Metrics.sample metrics ~now:(2. *. Duration.day));
      Series.close series;
      let rows = List.map (fun l -> Result.get_ok (Json.of_string l)) (read_lines path) in
      let considered row =
        Option.get (Option.bind (Json.member "invitations_considered" row) Json.to_int)
      in
      (* Cumulative 2 then 3 -> per-interval deltas 2 then 1. *)
      Alcotest.(check (list int)) "deltas" [ 2; 1 ] (List.map considered rows);
      Alcotest.(check (option int)) "seed column" (Some 3)
        (Option.bind (Json.member "seed" (List.hd rows)) Json.to_int))

(* -- Engine stats -------------------------------------------------------- *)

let test_engine_stats () =
  let engine = Engine.create () in
  let ids = List.init 5 (fun i -> Engine.schedule engine ~at:(float_of_int (i + 1)) ignore) in
  Engine.cancel engine (List.nth ids 0);
  Engine.cancel engine (List.nth ids 1);
  Engine.cancel engine (List.nth ids 1);
  (* double cancel is a no-op *)
  Engine.run engine;
  let stats = Engine.stats engine in
  Alcotest.(check int) "scheduled" 5 stats.Engine.scheduled;
  Alcotest.(check int) "cancelled" 2 stats.Engine.cancelled;
  Alcotest.(check int) "executed" 3 stats.Engine.executed;
  Alcotest.(check int) "pending" 0 stats.Engine.pending;
  Alcotest.(check int) "heap high-water" 5 stats.Engine.max_heap_depth

(* -- Cost counts ----------------------------------------------------------- *)

(* What a seeded run costs, in quantities that do not depend on the host:
   the executed event count is exact, and [Gc.minor_words] over the run
   phase repeats to the word. The points are 2 AUs, quorum 5, no attack,
   seed 11, at 100 peers x 1 year and 1,000 peers x 0.5 years. Each
   words/event bound sits a few percent above the measured value (97.32
   and 87.08 today) and may only be lowered. Timing is perfbench's job
   (BENCHMARK.json). *)
let cost_point ~peers ~years =
  {
    Experiments.Scenario.peers;
    aus = 2;
    quorum = 5;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = min 15 (peers - 1);
    years;
    runs = 1;
    seed = 11;
  }

(* Executed events and run-phase minor words per executed event. *)
let run_cost (sc : Experiments.Scenario.scale) =
  let cfg = Experiments.Scenario.config sc in
  let population = Experiments.Scenario.build ~cfg ~seed:sc.seed No_attack in
  let w0 = Gc.minor_words () in
  Population.run population ~until:(Duration.of_years sc.years);
  let words = Gc.minor_words () -. w0 in
  let executed = (Engine.stats (Population.engine population)).Engine.executed in
  (executed, words /. float_of_int executed)

let check_cost ~peers ~years ~executed ~max_words_per_event () =
  let got, words_per_event = run_cost (cost_point ~peers ~years) in
  Alcotest.(check int) (Printf.sprintf "%d peers: executed events" peers) executed got;
  if words_per_event > max_words_per_event then
    Alcotest.failf "%d peers: %.2f minor words/event, bound %.2f" peers words_per_event
      max_words_per_event

(* The 1-year micro run of the sink checks: 15 peers x 2 AUs, seed 7. *)
let micro_year =
  {
    Experiments.Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 1.;
    runs = 1;
    seed = 7;
  }

(* A Warn-level trace sink raises the bus's interest floor, so nearly
   every emission skips its thunk: the observed run may cost only the
   fixed price of opening the sink (151 words today), never words per
   event, and must execute the same events. This catches an emission
   site whose thunk runs although no subscriber wants its severity (a
   missing or too-high [~bound]), which the bus-level thunk test cannot
   see.
   The sink is wired as [Scenario.run_one] wires [trace_out]. *)
let test_warn_sink_costs_no_words_per_event () =
  let cfg = Experiments.Scenario.config micro_year in
  let path = Filename.temp_file "warn_sink" ".jsonl" in
  let run ~observed =
    let population = Experiments.Scenario.build ~cfg ~seed:micro_year.seed No_attack in
    let w0 = Gc.minor_words () in
    let close =
      if observed then begin
        let sink = Obs.Sink.open_file path in
        Trace.subscribe ~interest:Trace.Warn (Population.trace population)
          (Trace.buffered_jsonl_sink ~min_severity:Trace.Warn sink);
        fun () -> Obs.Sink.close sink
      end
      else ignore
    in
    Population.run population ~until:(Duration.of_years micro_year.years);
    close ();
    let words = Gc.minor_words () -. w0 in
    ((Engine.stats (Population.engine population)).Engine.executed, words)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let executed, words = run ~observed:false in
      let executed', words' = run ~observed:true in
      Alcotest.(check int) "same executed events" executed executed';
      if words' -. words > 1000. then
        Alcotest.failf "warn-level sink allocated %.0f extra minor words (bound 1000)"
          (words' -. words))

(* A Debug file sink drains to the OS when its buffer fills, never per
   event: a write syscall per record once made file sinks ~9x the
   untraced run. After each event the test reads the sink's pending
   bytes; only a flush leaves none, so the empty readings count the
   flushes, and they may not outnumber the buffers the run filled. The
   JSONL and binary writers are checked alike, on the 1-year micro run. *)
let test_debug_sinks_flush_by_size () =
  let buffer_bytes = 65_536 in
  let cfg = Experiments.Scenario.config micro_year in
  let check (name, writer_of) =
    let path = Filename.temp_file "debug_sink" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let population =
          Experiments.Scenario.build ~cfg ~seed:micro_year.seed No_attack
        in
        let sink = Obs.Sink.open_file ~buffer_bytes path in
        let write = writer_of sink in
        let events = ref 0 and flushes = ref 0 in
        Trace.subscribe (Population.trace population) (fun ~time event ->
            write ~time event;
            incr events;
            if Obs.Sink.pending sink = 0 then incr flushes);
        Population.run population ~until:(Duration.of_years micro_year.years);
        let buffers = Obs.Sink.written sink / buffer_bytes in
        Obs.Sink.close sink;
        if !flushes > buffers + 1 then
          Alcotest.failf "%s sink: %d flushes over %d events, %d buffers filled" name
            !flushes !events buffers)
  in
  List.iter check
    [
      ("jsonl", fun sink -> Trace.buffered_jsonl_sink sink);
      ("binary", fun sink -> Trace.binary_sink (Obs.Btrace.writer sink));
    ]

(* -- Metrics hardening --------------------------------------------------- *)

let test_repair_underflow_clamps () =
  let metrics = Metrics.create ~replicas:4 ~start:0. in
  (* Repair with nothing damaged: must not abort, must be counted. *)
  Metrics.on_replica_repaired metrics ~now:1.;
  Metrics.on_replica_damaged metrics ~now:2.;
  Metrics.on_replica_repaired metrics ~now:3.;
  Metrics.on_replica_repaired metrics ~now:4.;
  let summary = Metrics.finalize metrics ~now:10. in
  Alcotest.(check int) "underflows counted" 2 summary.Metrics.repair_underflows;
  let sample = Metrics.sample metrics ~now:10. in
  Alcotest.(check int) "damage clamped at zero" 0 sample.Metrics.damaged_replicas

(* -- Duration parsing ---------------------------------------------------- *)

let test_duration_of_string () =
  let ok s expect =
    match Duration.of_string s with
    | Ok v -> Alcotest.(check (float 1e-6)) s expect v
    | Error msg -> Alcotest.failf "%s: %s" s msg
  in
  ok "7d" (Duration.of_days 7.);
  ok "12h" (12. *. Duration.hour);
  ok "90" 90.;
  ok "90s" 90.;
  ok "5m" (5. *. Duration.minute);
  ok "2w" (Duration.of_days 14.);
  ok "1mo" Duration.month;
  ok "0.5y" (Duration.of_years 0.5);
  ok " 3d " (Duration.of_days 3.);
  List.iter
    (fun s ->
      match Duration.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "x"; "-5d"; "5q"; ""; "d"; "1.2.3h" ]

(* -- End to end: Scenario observability ---------------------------------- *)

let test_scenario_observability_end_to_end () =
  let trace_path = Filename.temp_file "obs_trace" ".jsonl" in
  let metrics_path = Filename.temp_file "obs_metrics" ".csv" in
  let seeds = [ 5; 6 ] in
  let seeded path seed = Experiments.Scenario.seeded_path path ~seed in
  let per_seed path = List.map (fun seed -> seeded path seed) seeds in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        ((trace_path :: metrics_path :: per_seed trace_path) @ per_seed metrics_path))
    (fun () ->
      let scale =
        {
          Experiments.Scenario.peers = 10;
          aus = 1;
          quorum = 3;
          max_disagree = 1;
          outer_circle = 3;
          reference_target = 6;
          years = 0.25;
          runs = 2;
          seed = 5;
        }
      in
      let cfg = Experiments.Scenario.config scale in
      let observe =
        {
          Experiments.Scenario.default_observe with
          Experiments.Scenario.trace_out = Some trace_path;
          metrics_out = Some metrics_path;
          sample_interval = Duration.of_days 7.;
        }
      in
      (* Two runs; each writes its own seed-suffixed trace and metrics file. *)
      ignore
        (Experiments.Scenario.run_avg ~observe ~cfg scale
           Experiments.Scenario.No_attack);
      List.iter
        (fun seed ->
          (* Trace file: every line parses back to a typed event. *)
          let trace_lines = read_lines (seeded trace_path seed) in
          Alcotest.(check bool)
            (Printf.sprintf "trace nonempty (seed %d)" seed)
            true
            (List.length trace_lines > 10);
          List.iter
            (fun line ->
              match
                Result.bind (Json.of_string line) (fun json -> Trace.of_json json)
              with
              | Ok _ -> ()
              | Error msg -> Alcotest.failf "trace line %S: %s" line msg)
            trace_lines;
          (* Metrics file: one header plus 13 weekly samples for this run. *)
          match read_lines (seeded metrics_path seed) with
          | [] -> Alcotest.failf "empty metrics file (seed %d)" seed
          | header :: rows ->
            Alcotest.(check string) "header" (String.concat "," Sampler.columns) header;
            (* 0.25 y = 91.25 days -> 13 full 7-day intervals. *)
            Alcotest.(check int) (Printf.sprintf "rows (seed %d)" seed) 13
              (List.length rows);
            let row_seeds =
              List.sort_uniq compare
                (List.map (fun row -> List.hd (String.split_on_char ',' row)) rows)
            in
            Alcotest.(check (list string))
              (Printf.sprintf "seed column (seed %d)" seed)
              [ string_of_int seed ] row_seeds)
        seeds)

(* -- Span reconstruction -------------------------------------------------- *)

let feed_events analyzer events =
  List.iter (fun (time, event) -> Check.Analyze.feed analyzer ~time event) events

(* The offline trace-report path: every record of a trace file, as
   [Trace.iter_file] decodes it, goes to the analyzer. *)
let analyze_file path =
  let analyzer = Check.Analyze.create () in
  ignore (Trace.iter_file path ~f:(Check.Analyze.feed_record analyzer));
  analyzer

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines)

(* One complete, healthy poll lifecycle for poll (1, 0, 42). *)
let poll_lifecycle_events =
  [
    (0., Trace.Poll_started { poller = 1; au = 0; poll_id = 42; inner_candidates = 5 });
    (10., Trace.Solicitation_sent { poller = 1; voter = 2; au = 0; poll_id = 42; attempt = 1 });
    (12., Trace.Solicitation_sent { poller = 1; voter = 3; au = 0; poll_id = 42; attempt = 1 });
    (20., Trace.Invitation_accepted { voter = 2; poller = 1; au = 0; poll_id = 42 });
    (22., Trace.Invitation_refused { voter = 3; poller = 1; au = 0; poll_id = 42 });
    ( 30.,
      Trace.Effort_charged
        {
          peer = 2;
          role = Trace.Loyal;
          phase = Trace.Voting;
          poller = Some 1;
          au = Some 0;
          poll_id = Some 42;
          seconds = 100.;
        } );
    (35., Trace.Vote_sent { voter = 2; poller = 1; au = 0; poll_id = 42 });
    (40., Trace.Evaluation_started { poller = 1; au = 0; poll_id = 42; votes = 1 });
    ( 41.,
      Trace.Effort_received
        { peer = 1; from_ = 2; phase = Trace.Voting; au = 0; poll_id = 42; seconds = 7. } );
    ( 45.,
      Trace.Repair_applied
        { poller = 1; au = 0; poll_id = 42; block = 0; version = 3; clean = false } );
    (50., Trace.Poll_concluded { poller = 1; au = 0; poll_id = 42; outcome = Metrics.Success });
  ]

let test_span_reconstruction () =
  let analyzer = Check.Analyze.create () in
  feed_events analyzer poll_lifecycle_events;
  (* A vote crossing the conclusion in flight is informational, not an
     anomaly. *)
  feed_events analyzer [ (55., Trace.Vote_sent { voter = 3; poller = 1; au = 0; poll_id = 42 }) ];
  let builder = Check.Analyze.span_builder analyzer in
  Alcotest.(check int) "no anomalies" 0 (Check.Span.anomaly_count builder);
  Alcotest.(check int) "late vote is informational" 1 (Check.Span.late_events builder);
  Alcotest.(check int) "no open spans" 0 (List.length (Check.Span.open_spans builder));
  match Check.Span.closed_spans builder with
  | [ s ] ->
    Alcotest.(check int) "poller" 1 s.Check.Span.poller;
    Alcotest.(check int) "inner candidates" 5 s.Check.Span.inner_candidates;
    Alcotest.(check int) "solicitations" 2 s.Check.Span.solicitations;
    Alcotest.(check int) "accepted" 1 s.Check.Span.invitations_accepted;
    Alcotest.(check int) "refused" 1 s.Check.Span.invitations_refused;
    Alcotest.(check int) "votes before conclusion" 1 s.Check.Span.votes;
    Alcotest.(check (option (float 1e-9))) "first vote at" (Some 35.) s.Check.Span.first_vote_at;
    Alcotest.(check int) "votes at evaluation" 1 s.Check.Span.votes_at_evaluation;
    Alcotest.(check int) "repairs" 1 s.Check.Span.repairs;
    Alcotest.(check bool) "concluded successfully" true
      (s.Check.Span.outcome = Some Metrics.Success);
    Alcotest.(check (float 1e-9)) "effort spent" 100. s.Check.Span.effort_spent;
    Alcotest.(check (float 1e-9)) "effort received" 7. s.Check.Span.effort_received;
    Alcotest.(check (option (float 1e-9))) "solicitation duration" (Some 40.)
      (Check.Span.solicitation_duration s);
    Alcotest.(check (option (float 1e-9))) "evaluation duration" (Some 5.)
      (Check.Span.evaluation_duration s);
    Alcotest.(check (option (float 1e-9))) "repair duration" (Some 5.)
      (Check.Span.repair_duration s);
    Alcotest.(check (option (float 1e-9))) "total duration" (Some 50.)
      (Check.Span.total_duration s)
  | spans -> Alcotest.failf "expected one closed span, got %d" (List.length spans)

let test_span_anomalies () =
  let builder = Check.Span.create () in
  let feed time event = Check.Span.feed builder ~time event in
  (* Two events for a poll whose start was never seen: one anomaly per
     orphan key, both events counted. *)
  feed 1. (Trace.Vote_sent { voter = 9; poller = 8; au = 0; poll_id = 5 });
  feed 2. (Trace.Vote_sent { voter = 10; poller = 8; au = 0; poll_id = 5 });
  Alcotest.(check int) "orphan anomalies dedup per key" 1 (Check.Span.anomaly_count builder);
  Alcotest.(check int) "orphan events all counted" 2 (Check.Span.orphan_events builder);
  (* A second poll by the same (poller, au) abandons the first. *)
  feed 3. (Trace.Poll_started { poller = 1; au = 0; poll_id = 1; inner_candidates = 0 });
  feed 4. (Trace.Poll_started { poller = 1; au = 0; poll_id = 2; inner_candidates = 0 });
  feed 5. (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 2; outcome = Metrics.Success });
  feed 6. (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 2; outcome = Metrics.Success });
  (* Poller-side activity after its own conclusion is an anomaly. *)
  feed 7. (Trace.Evaluation_started { poller = 1; au = 0; poll_id = 2; votes = 0 });
  let kinds =
    List.map
      (function
        | Check.Span.Orphan_event _ -> "orphan"
        | Check.Span.Abandoned_poll _ -> "abandoned"
        | Check.Span.Duplicate_conclusion _ -> "duplicate"
        | Check.Span.Poller_event_after_conclusion _ -> "after-conclusion"
        | Check.Span.Malformed_line _ -> "malformed")
      (Check.Span.anomalies builder)
  in
  Alcotest.(check (list string)) "anomaly sequence"
    [ "orphan"; "abandoned"; "duplicate"; "after-conclusion" ]
    kinds;
  (* The abandoned span is closed without an outcome. *)
  let abandoned =
    List.filter (fun s -> s.Check.Span.outcome = None) (Check.Span.closed_spans builder)
  in
  Alcotest.(check int) "abandoned span closed outcome-less" 1 (List.length abandoned)

let test_truncated_trace_is_not_fatal () =
  (* A trace cut mid-poll (the writer died): the final line is half a
     JSON object and the poll never concludes. The analyzer must report
     a malformed line and keep the span open, not crash. *)
  let lines =
    List.map (fun (time, e) -> Json.to_string (Trace.to_json ~time e)) poll_lifecycle_events
  in
  let keep = List.length lines - 1 in
  let lines =
    List.filteri (fun i _ -> i < keep) lines
    |> List.mapi (fun i line ->
           if i = keep - 1 then String.sub line 0 (String.length line / 2) else line)
  in
  with_temp_file (fun path ->
      write_lines path lines;
      let analyzer = analyze_file path in
      Alcotest.(check int) "one anomaly" 1 (Check.Analyze.anomaly_count analyzer);
      (match Check.Analyze.anomalies analyzer with
      | [ Check.Span.Malformed_line { line; _ } ] ->
        Alcotest.(check int) "at the cut line" keep line
      | _ -> Alcotest.fail "expected a malformed-line anomaly");
      let builder = Check.Analyze.span_builder analyzer in
      Alcotest.(check int) "poll left open" 1 (List.length (Check.Span.open_spans builder));
      Alcotest.(check int) "nothing concluded" 0
        (List.length (Check.Span.closed_spans builder)))

let test_undecodable_records_offline () =
  (* Three records the typed decoder rejects, between valid ones: an
     unknown kind, a poll-scoped event without its poll_id, and a line
     that is not JSON. Both offline tools read the file through
     [Trace.iter_file]: trace-report must give one malformed-line
     anomaly per bad record, at its line, and the audit one
     trace-format violation per bad record while it keeps auditing the
     valid ones — here, catching two admissions inside the refractory
     period. *)
  let line time event = Json.to_string (Trace.to_json ~time event) in
  let admitted =
    Trace.Invitation_admitted
      { voter = 2; claimed = 1; au = 0; poll_id = Some 42; path = Trace.Admitted_unknown }
  in
  let vote = Trace.Vote_sent { voter = 2; poller = 1; au = 0; poll_id = 42 } in
  let without_poll_id =
    match Trace.to_json ~time:25. vote with
    | Json.Assoc members ->
      Json.to_string (Json.Assoc (List.filter (fun (k, _) -> k <> "poll_id") members))
    | _ -> assert false
  in
  let lines =
    [
      line 0. (Trace.Poll_started { poller = 1; au = 0; poll_id = 42; inner_candidates = 5 });
      {|{"t":5,"severity":"info","kind":"no_such_kind","poller":1}|};
      line 20. admitted;
      without_poll_id;
      {|{"t":27,"severity":"debug","kind":|};
      line 30. admitted;
      line 35. vote;
      line 50.
        (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 42; outcome = Metrics.Success });
    ]
  in
  let bad_lines = [ 2; 4; 5 ] in
  with_temp_file (fun path ->
      write_lines path lines;
      let analyzer = analyze_file path in
      Alcotest.(check int) "every line counted" (List.length lines)
        (Check.Analyze.lines analyzer);
      Alcotest.(check (list int)) "one malformed anomaly per bad record" bad_lines
        (List.map
           (function
             | Check.Span.Malformed_line { line; _ } -> line
             | a -> Alcotest.failf "unexpected anomaly %a" Check.Span.pp_anomaly a)
           (Check.Analyze.anomalies analyzer));
      Alcotest.(check int) "valid poll still concluded" 1
        (List.length (Check.Span.closed_spans (Check.Analyze.span_builder analyzer)));
      let auditor = Check.Auditor.create ~only:[ "refractory" ] () in
      ignore (Trace.iter_file path ~f:(Check.Auditor.feed_record auditor));
      Check.Auditor.finish auditor;
      let found =
        List.map
          (fun v -> (v.Check.Invariant.invariant, v.Check.Invariant.detail))
          (Check.Auditor.violations auditor)
      in
      let format_lines =
        List.filter_map
          (fun (id, detail) ->
            if id = "trace-format" then Scanf.sscanf_opt detail "line %d:" Fun.id
            else None)
          found
      in
      Alcotest.(check (list int)) "one trace-format violation per bad record" bad_lines
        format_lines;
      Alcotest.(check (list string)) "valid records still audited"
        [ "trace-format"; "trace-format"; "trace-format"; "refractory" ]
        (List.map fst found))

(* -- Ledger --------------------------------------------------------------- *)

let test_ledger_accumulates () =
  let ledger = Check.Ledger.create () in
  let feed time event = Check.Ledger.feed ledger ~time event in
  let charge peer role phase seconds =
    Trace.Effort_charged
      { peer; role; phase; poller = Some 1; au = Some 0; poll_id = Some 1; seconds }
  in
  feed 1. (charge 1 Trace.Loyal Trace.Solicitation 50.);
  feed 2. (charge 2 Trace.Loyal Trace.Voting 30.);
  feed 3. (charge 2 Trace.Adversary Trace.Voting 20.);
  feed 4.
    (Trace.Effort_received
       { peer = 1; from_ = 2; phase = Trace.Voting; au = 0; poll_id = 1; seconds = 5. });
  feed 5. (Trace.Poll_started { poller = 1; au = 0; poll_id = 1; inner_candidates = 2 });
  feed 5.5
    (Trace.Invitation_admitted
       {
         voter = 2;
         claimed = 1;
         au = 0;
         poll_id = Some 1;
         path = Trace.Admitted_unknown;
       });
  feed 6. (Trace.Vote_sent { voter = 2; poller = 1; au = 0; poll_id = 1 });
  feed 7. (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 1; outcome = Metrics.Success });
  let e2 = Option.get (Check.Ledger.find ledger 2) in
  Alcotest.(check (float 1e-9)) "loyal and adversary kept apart (loyal)" 30.
    (Check.Ledger.spent_loyal_total e2);
  Alcotest.(check (float 1e-9)) "loyal and adversary kept apart (adversary)" 20.
    (Check.Ledger.spent_adversary_total e2);
  Alcotest.(check (float 1e-9)) "voting-phase bucket" 30.
    e2.Check.Ledger.spent_loyal.(Check.Ledger.phase_index Trace.Voting);
  Alcotest.(check int) "votes credited to the voter" 1 e2.Check.Ledger.votes_sent;
  let e1 = Option.get (Check.Ledger.find ledger 1) in
  Alcotest.(check (float 1e-9)) "receipts credited to the poller" 5.
    (Check.Ledger.received_total e1);
  Alcotest.(check int) "poll outcome credited to the poller" 1 e1.Check.Ledger.polls_succeeded;
  let totals = Check.Ledger.totals ledger in
  Alcotest.(check (float 1e-9)) "loyal total" 80. totals.Check.Ledger.loyal_effort;
  Alcotest.(check (float 1e-9)) "friction numerator" 80.
    (Check.Ledger.effort_per_successful_poll ledger);
  Alcotest.(check (float 1e-9)) "cost ratio" 0.25 (Check.Ledger.cost_ratio ledger);
  let matching =
    {
      (Metrics.finalize (Metrics.create ~replicas:1 ~start:0.) ~now:1.) with
      Metrics.loyal_effort = 80.;
      adversary_effort = 20.;
      polls_succeeded = 1;
      votes_supplied = 1;
      invitations_considered = 1;
    }
  in
  let r = Check.Ledger.reconcile ledger matching in
  Alcotest.(check bool) "reconciles against matching aggregates" true r.Check.Ledger.ok;
  let bad =
    Check.Ledger.reconcile ledger
      { matching with Metrics.loyal_effort = 81.; votes_supplied = 2 }
  in
  Alcotest.(check bool) "detects a mismatch" false bad.Check.Ledger.ok

(* Run a real simulation with a live analyzer attached and check the
   ledger reconstructed from trace events against the Metrics
   aggregates — the reconciliation-by-construction invariant. *)
let reconciled_run attack =
  let scale =
    {
      Experiments.Scenario.peers = 12;
      aus = 1;
      quorum = 3;
      max_disagree = 1;
      outer_circle = 3;
      reference_target = 6;
      years = 0.25;
      runs = 1;
      seed = 11;
    }
  in
  let cfg = Experiments.Scenario.config scale in
  let population = Experiments.Scenario.build ~cfg ~seed:11 attack in
  let analyzer = Check.Analyze.create () in
  Trace.subscribe (Population.trace population) (Check.Analyze.feed analyzer);
  Population.run population ~until:(Duration.of_years scale.Experiments.Scenario.years);
  (analyzer, Population.summary population)

let check_reconciles name analyzer (s : Metrics.summary) =
  let ledger = Check.Analyze.ledger analyzer in
  let r = Check.Ledger.reconcile ledger s in
  if not r.Check.Ledger.ok then
    Alcotest.failf "%s does not reconcile: %s" name
      (Format.asprintf "%a" Check.Ledger.pp_reconciliation r);
  (* The derived defense metrics must agree too (same data, so up to
     float summation order). *)
  let close label expect actual =
    let ok =
      (Float.is_finite expect
      && Float.abs (actual -. expect) <= 1e-6 *. Float.max 1. (Float.abs expect))
      || (expect = infinity && actual = infinity)
    in
    if not ok then Alcotest.failf "%s %s: expected %g, got %g" name label expect actual
  in
  close "friction numerator" s.Metrics.effort_per_successful_poll
    (Check.Ledger.effort_per_successful_poll ledger);
  if s.Metrics.loyal_effort > 0. then
    close "cost ratio"
      (s.Metrics.adversary_effort /. s.Metrics.loyal_effort)
      (Check.Ledger.cost_ratio ledger)

let test_ledger_reconciles_baseline () =
  let analyzer, summary = reconciled_run Experiments.Scenario.No_attack in
  check_reconciles "baseline" analyzer summary;
  (* A fault-free baseline produces a causally clean trace. *)
  Alcotest.(check int) "no anomalies on the fault-free baseline" 0
    (Check.Analyze.anomaly_count analyzer)

let test_ledger_reconciles_under_attack () =
  let analyzer, summary =
    reconciled_run
      (Experiments.Scenario.Brute_force
         { strategy = Adversary.Brute_force.Intro; rate = 3.; identities = 10 })
  in
  check_reconciles "brute force" analyzer summary;
  let totals = Check.Ledger.totals (Check.Analyze.ledger analyzer) in
  Alcotest.(check bool) "adversary effort visible in the ledger" true
    (totals.Check.Ledger.adversary_effort > 0.)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "observability"
    [
      ( "json",
        [
          quick "round trip" test_json_round_trip;
          quick "rejects garbage" test_json_rejects_garbage;
          quick "numbers" test_json_numbers;
          quick "escape sequences" test_json_escapes;
          quick "non-finite floats" test_json_non_finite_floats;
          quick "float literals across domains" test_json_float_literals_across_domains;
          quick "deep nesting" test_json_deep_nesting;
        ] );
      ( "trace",
        [
          quick "jsonl round trip (all kinds)" test_trace_jsonl_round_trip;
          quick "decode error paths" test_trace_decode_errors;
          quick "sink fan-out" test_trace_sink_fanout;
          quick "severity order" test_trace_severity_order;
          quick "ring recorder counts drops" test_recorder_counts_drops;
          quick "recorder under capacity" test_recorder_under_capacity_drops_nothing;
        ] );
      ( "series",
        [
          quick "csv" test_series_csv;
          quick "jsonl" test_series_jsonl;
          quick "format by path" test_series_format_of_path;
        ] );
      ( "sampler",
        [
          quick "tick alignment with run_until" test_sampler_tick_alignment;
          quick "sees metric changes" test_sampler_sees_metric_changes;
          quick "series writer deltas" test_sampler_series_writer_deltas;
        ] );
      ( "engine",
        [ quick "profiling stats" test_engine_stats ] );
      ( "cost",
        [
          quick "100 peers: events and words/event"
            (check_cost ~peers:100 ~years:1. ~executed:172_331 ~max_words_per_event:100.);
          slow "1k peers: events and words/event"
            (check_cost ~peers:1_000 ~years:0.5 ~executed:878_220 ~max_words_per_event:90.);
          quick "warn-level sink costs no words per event"
            test_warn_sink_costs_no_words_per_event;
          quick "debug sinks flush by size" test_debug_sinks_flush_by_size;
        ] );
      ( "metrics",
        [ quick "repair underflow clamps" test_repair_underflow_clamps ] );
      ( "duration",
        [ quick "of_string" test_duration_of_string ] );
      ( "scenario",
        [ quick "end-to-end files" test_scenario_observability_end_to_end ] );
      ( "span",
        [
          quick "reconstruction from a healthy lifecycle" test_span_reconstruction;
          quick "anomaly taxonomy" test_span_anomalies;
          quick "truncated trace is not fatal" test_truncated_trace_is_not_fatal;
          quick "undecodable records offline" test_undecodable_records_offline;
        ] );
      ( "ledger",
        [
          quick "accumulates and reconciles" test_ledger_accumulates;
          quick "reconciles a live baseline run" test_ledger_reconciles_baseline;
          quick "reconciles a live attack run" test_ledger_reconciles_under_attack;
        ] );
    ]
