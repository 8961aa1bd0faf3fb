(* Tests for the low-overhead trace pipeline: buffered sinks, the
   binary trace encoding, format detection, the typed view fast path,
   emit short-circuiting, the run profiler and the bench regression
   gate. *)

module Json = Obs.Json
module Sink = Obs.Sink
module Btrace = Obs.Btrace
module Trace_file = Obs.Trace_file
module View = Obs.View
module Trace = Lockss.Trace
module Metrics = Lockss.Metrics
module Admission = Lockss.Admission
module Grade = Lockss.Grade
module Scenario = Experiments.Scenario
module Duration = Repro_prelude.Duration

let with_temp_file f =
  let path = Filename.temp_file "trace_pipeline" ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* One event of every kind in the taxonomy. *)
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
        poll_id = None;
        msg_kind = "vote";
        reason = Trace.Stale_closed;
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

let sample_jsons =
  List.mapi
    (fun i event -> Trace.to_json ~time:(10. *. float_of_int (i + 1)) event)
    sample_events

(* -- Sink ---------------------------------------------------------------- *)

let test_sink_size_bound () =
  with_temp_file (fun path ->
      let sink = Sink.open_file ~buffer_bytes:16 path in
      Sink.write sink "0123456789";
      Alcotest.(check int) "pending" 10 (Sink.pending sink);
      Alcotest.(check int) "nothing handed over" 0 (Sink.written sink);
      (* Crossing the 16-byte threshold drains the buffer. *)
      Sink.write sink "0123456789";
      Alcotest.(check int) "drained" 20 (Sink.written sink);
      Alcotest.(check int) "empty buffer" 0 (Sink.pending sink);
      Sink.close sink;
      Alcotest.(check string) "file content" "01234567890123456789" (read_all path))

let test_sink_explicit_flush () =
  with_temp_file (fun path ->
      let sink = Sink.open_file path in
      Sink.write_line sink "hello";
      Alcotest.(check string) "buffered, not on disk" "" (read_all path);
      Sink.flush sink;
      Alcotest.(check string) "flush makes it durable" "hello\n" (read_all path);
      Sink.close sink)

let test_sink_time_bound () =
  with_temp_file (fun path ->
      let sink = Sink.open_file ~flush_interval:10. path in
      Sink.write sink ~now:0. "a";
      Sink.write sink ~now:5. "b";
      Alcotest.(check int) "within interval: buffered" 2 (Sink.pending sink);
      Sink.write sink ~now:11. "c";
      Alcotest.(check int) "interval elapsed: drained" 3 (Sink.written sink);
      (* The mark advances: the next drain needs another full interval. *)
      Sink.write sink ~now:15. "d";
      Alcotest.(check int) "new interval: buffered" 1 (Sink.pending sink);
      Sink.close sink)

let test_sink_close_semantics () =
  with_temp_file (fun path ->
      let sink = Sink.open_file path in
      Sink.write sink "x";
      Sink.close sink;
      Alcotest.(check bool) "closed" true (Sink.closed sink);
      Sink.close sink;
      (* idempotent *)
      Alcotest.(check string) "flushed on close" "x" (read_all path);
      Alcotest.check_raises "write after close"
        (Invalid_argument "Sink: write after close") (fun () -> Sink.write sink "y"))

let test_sink_flush_on_exception () =
  with_temp_file (fun path ->
      (try
         Sink.with_file path (fun sink ->
             Sink.write_line sink "before the crash";
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check string) "trace survives the crash" "before the crash\n"
        (read_all path))

let test_sink_append_reopen () =
  with_temp_file (fun path ->
      Sink.with_file path (fun sink -> Sink.write_line sink "first");
      Sink.with_file ~append:true path (fun sink -> Sink.write_line sink "second");
      Alcotest.(check string) "append keeps the first run" "first\nsecond\n"
        (read_all path);
      Sink.with_file path (fun sink -> Sink.write_line sink "fresh");
      Alcotest.(check string) "default truncates" "fresh\n" (read_all path))

(* -- Series over a sink -------------------------------------------------- *)

let test_series_buffers_rows () =
  with_temp_file (fun path ->
      let series =
        Obs.Series.create ~format:Obs.Series.Csv ~columns:[ "t"; "x" ]
          (Sink.open_file path)
      in
      Obs.Series.append series [ Json.Float 1.5; Json.Int 2 ];
      Obs.Series.append series [ Json.Float 2.5; Json.Int 3 ];
      (* The old writer flushed per row; the sink-backed one must not. *)
      Alcotest.(check string) "rows buffered until close" "" (read_all path);
      Obs.Series.close series;
      Alcotest.(check string) "identical output to the unbuffered format"
        "t,x\n1.5,2\n2.5,3\n" (read_all path))

(* -- Binary trace format ------------------------------------------------- *)

let write_binary path jsons =
  Sink.with_file path (fun sink ->
      let w = Btrace.writer sink in
      List.iter (fun json -> Btrace.write w json) jsons;
      Btrace.count w)

let read_binary path =
  let acc = ref [] in
  match Btrace.iter_file path ~f:(fun ~index:_ json -> acc := json :: !acc) with
  | Ok () -> Ok (List.rev !acc)
  | Error msg -> Error msg

let test_btrace_round_trip_taxonomy () =
  with_temp_file (fun path ->
      let n = write_binary path sample_jsons in
      Alcotest.(check int) "record count" (List.length sample_jsons) n;
      match read_binary path with
      | Error msg -> Alcotest.failf "decode failed: %s" msg
      | Ok decoded ->
        Alcotest.(check int) "all records decoded" (List.length sample_jsons)
          (List.length decoded);
        List.iter2
          (fun original back ->
            Alcotest.(check bool)
              (Json.to_string original ^ " survives binary round-trip")
              true (original = back))
          sample_jsons decoded)

let test_btrace_smaller_than_jsonl () =
  with_temp_file (fun bin_path ->
      with_temp_file (fun jsonl_path ->
          (* Interning should make the steady-state binary encoding
             clearly smaller than JSONL for a repetitive event stream. *)
          let jsons = List.concat (List.init 20 (fun _ -> sample_jsons)) in
          ignore (write_binary bin_path jsons);
          Sink.with_file jsonl_path (fun sink ->
              List.iter (fun j -> Sink.write_line sink (Json.to_string j)) jsons);
          let bin = String.length (read_all bin_path) in
          let jsonl = String.length (read_all jsonl_path) in
          if not (bin * 2 < jsonl) then
            Alcotest.failf "binary %d bytes not < half of JSONL %d bytes" bin jsonl))

let test_btrace_truncation_detected () =
  with_temp_file (fun path ->
      ignore (write_binary path sample_jsons);
      let whole = read_all path in
      let truncated = String.sub whole 0 (String.length whole - 3) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc truncated);
      match read_binary path with
      | Ok _ -> Alcotest.fail "truncated file decoded cleanly"
      | Error _ -> ())

let write_raw path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let test_btrace_bad_magic () =
  with_temp_file (fun path ->
      write_raw path "NOPE1\n\x01\x00";
      match read_binary path with
      | Ok _ -> Alcotest.fail "bad magic accepted"
      | Error msg ->
        Alcotest.(check bool) "mentions magic" true
          (String.length msg > 0))

let test_btrace_bad_intern_ref () =
  with_temp_file (fun path ->
      (* One record: tag 8 (string ref) to id 5 with an empty table. *)
      write_raw path (Btrace.magic ^ "\x02\x08\x05");
      match read_binary path with
      | Ok _ -> Alcotest.fail "dangling intern reference accepted"
      | Error _ -> ())

let test_btrace_trailing_bytes_in_record () =
  with_temp_file (fun path ->
      (* Record claims 2 bytes but null needs only 1: trailing garbage. *)
      write_raw path (Btrace.magic ^ "\x02\x00\x00");
      match read_binary path with
      | Ok _ -> Alcotest.fail "trailing bytes inside a record accepted"
      | Error _ -> ())

(* Random JSON round-trip battery. *)
let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        (* Finite floats only: NaN breaks structural equality. *)
        map (fun f -> Json.Float f) (float_bound_inclusive 1e12);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 80));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 5) (value (depth - 1))));
          ( 1,
            map
              (fun fields -> Json.Assoc fields)
              (list_size (int_bound 5)
                 (pair (string_size ~gen:printable (int_bound 20)) (value (depth - 1))))
          );
        ]
  in
  list_size (int_bound 10) (value 3)

let test_btrace_qcheck_round_trip =
  QCheck2.Test.make ~name:"binary encoding round-trips arbitrary JSON" ~count:100
    json_gen (fun jsons ->
      with_temp_file (fun path ->
          ignore (write_binary path jsons);
          match read_binary path with
          | Error msg -> QCheck2.Test.fail_reportf "decode failed: %s" msg
          | Ok decoded -> decoded = jsons))

(* -- Trace_file ---------------------------------------------------------- *)

let test_trace_file_detect () =
  with_temp_file (fun path ->
      ignore (write_binary path sample_jsons);
      Alcotest.(check bool) "binary sniffed" true (Trace_file.detect path = Trace_file.Binary);
      write_raw path "{\"kind\":\"poll_started\"}\n";
      Alcotest.(check bool) "jsonl sniffed" true (Trace_file.detect path = Trace_file.Jsonl);
      write_raw path "";
      Alcotest.(check bool) "empty file is jsonl" true
        (Trace_file.detect path = Trace_file.Jsonl));
  Alcotest.(check bool) "ntrace extension" true
    (Trace_file.format_of_path "out/run.NTRACE" = Trace_file.Binary);
  Alcotest.(check bool) "other extension" true
    (Trace_file.format_of_path "out/run.jsonl" = Trace_file.Jsonl)

let test_trace_file_iter_jsonl_tolerant () =
  with_temp_file (fun path ->
      write_raw path "{\"kind\":\"a\"}\nnot json\n\n{\"kind\":\"b\"}\n";
      let oks = ref [] and errs = ref [] in
      let format =
        Trace_file.iter path ~f:(fun ~line result ->
            match result with
            | Ok json -> oks := (line, json) :: !oks
            | Error _ -> errs := line :: !errs)
      in
      Alcotest.(check bool) "format" true (format = Trace_file.Jsonl);
      (* Blank line skipped but counted; iteration continues past errors. *)
      Alcotest.(check (list int)) "good lines" [ 1; 4 ] (List.rev_map fst !oks);
      Alcotest.(check (list int)) "bad lines" [ 2 ] !errs)

let test_trace_file_iter_binary_stops () =
  with_temp_file (fun path ->
      ignore (write_binary path sample_jsons);
      let whole = read_all path in
      write_raw path (String.sub whole 0 (String.length whole - 2));
      let oks = ref 0 and errs = ref [] in
      ignore
        (Trace_file.iter path ~f:(fun ~line result ->
             match result with
             | Ok _ -> incr oks
             | Error _ -> errs := line :: !errs));
      Alcotest.(check int) "prefix decoded" (List.length sample_jsons - 1) !oks;
      Alcotest.(check (list int)) "one terminal error" [ List.length sample_jsons ] !errs)

(* -- View fast path ------------------------------------------------------ *)

let test_view_agrees_with_json () =
  List.iteri
    (fun i event ->
      let time = 10. *. float_of_int (i + 1) in
      let via_json = View.of_json (Trace.to_json ~time event) in
      let direct = Trace.to_view ~time event in
      match via_json with
      | None -> Alcotest.failf "%s: of_json returned None" (Trace.kind event)
      | Some v ->
        Alcotest.(check bool)
          (Trace.kind event ^ ": to_view = of_json . to_json")
          true (v = direct))
    sample_events;
  Alcotest.(check int) "whole taxonomy" (List.length Trace.all_kinds)
    (List.length sample_events)

let test_write_jsonl_byte_parity () =
  (* The direct serializer must emit exactly the bytes of the generic
     JSON path for every event kind, including awkward times and
     escape-needing strings. *)
  let times = [ 0.; 1.5; 86_400.; 5_831_999.734_210_6; 1e13; 0.000_123_456_789 ] in
  let events =
    Trace.Invariant_violated
      {
        invariant = "quote\"backslash\\tab\tnewline\n";
        peer = None;
        au = None;
        poll_id = Some 1;
        detail = "control\x01char";
      }
    :: sample_events
  in
  List.iter
    (fun time ->
      List.iter
        (fun event ->
          let buf = Buffer.create 256 in
          Trace.write_jsonl buf ~time event;
          Alcotest.(check string)
            (Printf.sprintf "%s @ %g" (Trace.kind event) time)
            (Json.to_string (Trace.to_json ~time event))
            (Buffer.contents buf))
        events)
    times

let test_binary_sink_byte_parity () =
  (* The direct field-by-field binary encoder must emit exactly the
     bytes of the generic [Btrace.write (to_json ...)] path, intern ids
     included. *)
  with_temp_file (fun direct_path ->
      with_temp_file (fun generic_path ->
          Sink.with_file direct_path (fun sink ->
              let w = Btrace.writer sink in
              let emit = Trace.binary_sink w in
              List.iteri
                (fun i e -> emit ~time:(10. *. float_of_int (i + 1)) e)
                sample_events);
          Sink.with_file generic_path (fun sink ->
              let w = Btrace.writer sink in
              List.iteri
                (fun i e ->
                  let time = 10. *. float_of_int (i + 1) in
                  Btrace.write w ~now:time (Trace.to_json ~time e))
                sample_events);
          Alcotest.(check string) "identical files" (read_all generic_path)
            (read_all direct_path)))

(* Minor words one call of [f] allocates per event, averaged over
   repeated passes of [sample_events] after a warm-up pass has filled
   intern tables, literal caches and buffers. [Gc.minor_words] is exact,
   so the figure is deterministic. *)
let words_per_event f =
  let timed = List.mapi (fun i e -> (10. *. float_of_int (i + 1), e)) sample_events in
  let rec feed = function
    | [] -> ()
    | (time, e) :: rest ->
      f ~time e;
      feed rest
  in
  feed timed;
  let passes = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to passes do
    feed timed
  done;
  (Gc.minor_words () -. w0) /. float_of_int (passes * List.length timed)

let test_codec_allocation () =
  (* Upper bounds pinned from the per-event encoders that preceded the
     generic field walk: the walk may allocate less, never more. *)
  let check name bound measured =
    if measured > bound then
      Alcotest.failf "%s allocates %.3f words/event, bound %.3f" name measured bound
  in
  with_temp_file (fun path ->
      Sink.with_file path (fun sink ->
          check "binary_sink" 2.243
            (words_per_event (Trace.binary_sink (Btrace.writer sink)));
          check "buffered_jsonl_sink" 5.28
            (words_per_event (Trace.buffered_jsonl_sink sink))));
  check "to_view" 20.32 (words_per_event (fun ~time e -> ignore (Trace.to_view ~time e)))

let test_analyzer_parity_json_vs_view () =
  (* Feeding serialised JSON and feeding typed views must produce the
     same report: the live fast path cannot drift from the offline
     path. *)
  let via_json = Obs.Analyze.create () in
  let via_view = Obs.Analyze.create () in
  List.iteri
    (fun i event ->
      let time = 10. *. float_of_int (i + 1) in
      Obs.Analyze.feed via_json (Trace.to_json ~time event);
      Obs.Analyze.feed_view via_view (Trace.to_view ~time event))
    sample_events;
  Alcotest.(check string) "identical reports"
    (Json.to_string (Obs.Analyze.report_json via_json))
    (Json.to_string (Obs.Analyze.report_json via_view))

(* -- Emit short-circuiting ----------------------------------------------- *)

let test_emit_bound_skips_thunk () =
  let bus = Trace.create () in
  let delivered = ref 0 in
  Trace.subscribe ~interest:Trace.Warn bus (fun ~time:_ _ -> incr delivered);
  let built = ref 0 in
  let make () =
    incr built;
    Trace.Node_crashed { node = 1 }
  in
  Trace.emit ~bound:Trace.Debug bus ~now:0. make;
  Alcotest.(check int) "debug-bounded thunk skipped" 0 !built;
  Trace.emit ~bound:Trace.Warn bus ~now:0. make;
  Alcotest.(check int) "warn-bounded thunk runs" 1 !built;
  (* Interest only licenses skipping: delivery is not filtered. *)
  Alcotest.(check int) "delivered regardless of actual severity" 1 !delivered;
  (* A lower-interest subscriber reopens the bus. *)
  Trace.subscribe ~interest:Trace.Debug bus (fun ~time:_ _ -> ());
  Trace.emit ~bound:Trace.Debug bus ~now:0. make;
  Alcotest.(check int) "debug interest restores construction" 2 !built

let severity_rank = function Trace.Debug -> 0 | Trace.Info -> 1 | Trace.Warn -> 2

let tiny_scale =
  {
    Scenario.peers = 12;
    aus = 2;
    quorum = 3;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 6;
    years = 0.1;
    runs = 1;
    seed = 5;
  }

let capture_run ~interest =
  let cfg = Scenario.config tiny_scale in
  let population = Scenario.build ~cfg ~seed:5 Scenario.No_attack in
  let acc = ref [] in
  Lockss.Trace.subscribe ~interest
    (Lockss.Population.trace population)
    (fun ~time event ->
      if severity_rank (Trace.severity event) >= severity_rank interest then
        acc := Json.to_string (Trace.to_json ~time event) :: !acc);
  Lockss.Population.run population ~until:(Duration.of_days 36.);
  List.rev !acc

let test_emit_severity_parity () =
  (* The in-tree call sites' declared bounds must never skip an event an
     interested subscriber would have kept: a Warn-interest run has to
     see exactly the Warn-or-worse slice of the full Debug capture. *)
  let all = capture_run ~interest:Trace.Debug in
  let warn_only = capture_run ~interest:Trace.Warn in
  let expected =
    List.filter
      (fun line ->
        match Json.of_string line with
        | Ok json ->
          (match Trace.of_json json with
          | Ok (_, event) -> severity_rank (Trace.severity event) >= 2
          | Error _ -> false)
        | Error _ -> false)
      all
  in
  Alcotest.(check bool) "the debug capture is non-trivial" true (List.length all > 100);
  Alcotest.(check (list string)) "warn capture = filtered debug capture" expected
    warn_only

(* -- Scenario trace files: jsonl and binary agree ----------------------- *)

let test_run_trace_encodings_agree () =
  with_temp_file (fun jsonl_path ->
      with_temp_file (fun ntrace_stub ->
          let binary_path = ntrace_stub ^ ".ntrace" in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun p ->
                  let seeded = Scenario.seeded_path p ~seed:5 in
                  if Sys.file_exists seeded then Sys.remove seeded)
                [ jsonl_path; binary_path ])
            (fun () ->
              let cfg = Scenario.config tiny_scale in
              let observe trace_out trace_format =
                {
                  Scenario.default_observe with
                  Scenario.trace_out = Some trace_out;
                  trace_level = Lockss.Trace.Debug;
                  trace_format;
                }
              in
              let s1 =
                Scenario.run_one
                  ~observe:(observe jsonl_path `Jsonl)
                  ~cfg ~seed:5 ~years:0.1 Scenario.No_attack
              in
              let s2 =
                Scenario.run_one
                  ~observe:(observe binary_path `Auto)
                  ~cfg ~seed:5 ~years:0.1 Scenario.No_attack
              in
              (* [compare], not [=]: empirical_read_failure is [nan] when
                 the short run saw no reads, and [nan = nan] is false. *)
              Alcotest.(check bool) "same summary" true (compare s1 s2 = 0);
              let jsonl_file = Scenario.seeded_path jsonl_path ~seed:5 in
              let binary_file = Scenario.seeded_path binary_path ~seed:5 in
              Alcotest.(check bool) "binary format selected by extension" true
                (Trace_file.detect binary_file = Trace_file.Binary);
              (* The two encodings of the same run must analyze
                 byte-identically. *)
              let report path =
                let analyzer = Obs.Analyze.create () in
                Obs.Analyze.read_file analyzer path;
                Json.to_string (Obs.Analyze.report_json analyzer)
              in
              Alcotest.(check string) "identical trace-report" (report jsonl_file)
                (report binary_file);
              (* And converting jsonl -> binary reproduces the stream. *)
              let reencoded = ref [] in
              ignore
                (Trace_file.iter jsonl_file ~f:(fun ~line:_ result ->
                     match result with
                     | Ok json -> reencoded := json :: !reencoded
                     | Error msg -> Alcotest.failf "jsonl record: %s" msg));
              let from_binary = ref [] in
              ignore
                (Trace_file.iter binary_file ~f:(fun ~line:_ result ->
                     match result with
                     | Ok json -> from_binary := json :: !from_binary
                     | Error msg -> Alcotest.failf "binary record: %s" msg));
              Alcotest.(check bool) "identical json streams" true
                (List.rev !reencoded = List.rev !from_binary))))

(* -- Profiler ------------------------------------------------------------ *)

let test_profiler_phases () =
  let now = ref 0. in
  let prof = Obs.Profiler.create ~clock:(fun () -> !now) () in
  let result =
    Obs.Profiler.phase prof "setup" (fun () ->
        now := !now +. 1.5;
        42)
  in
  Alcotest.(check int) "phase returns the body's result" 42 result;
  Obs.Profiler.phase prof "setup" (fun () -> now := !now +. 0.5);
  Alcotest.(check (float 1e-9)) "accumulates across calls" 2.
    (Obs.Profiler.phase_seconds prof "setup");
  (try Obs.Profiler.phase prof "run" (fun () -> now := !now +. 3.; failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (float 1e-9)) "exception-safe" 3.
    (Obs.Profiler.phase_seconds prof "run");
  Obs.Profiler.add_phase_time prof "run" 1.;
  Alcotest.(check (float 1e-9)) "external credit" 4.
    (Obs.Profiler.phase_seconds prof "run")

let test_profiler_domains_and_snapshot () =
  let prof = Obs.Profiler.create () in
  Obs.Profiler.note_domain prof ~domain:1 ~busy_s:2. ~tasks:3 ();
  Obs.Profiler.note_domain prof ~domain:0 ~busy_s:1. ~tasks:2 ();
  Obs.Profiler.note_domain prof ~domain:1 ~cpu_s:0.4 ~minor_words:1000.
    ~minor_collections:2 ~major_collections:1 ~busy_s:0.5 ~tasks:1 ();
  (match Obs.Profiler.domain_stats prof with
  | [ d0; d1 ] ->
    Alcotest.(check int) "sorted by id" 0 d0.Obs.Profiler.domain;
    Alcotest.(check (float 1e-9)) "domain 1 busy accumulates" 2.5
      d1.Obs.Profiler.busy_s;
    Alcotest.(check int) "domain 1 tasks accumulate" 4 d1.Obs.Profiler.tasks;
    Alcotest.(check (float 1e-9)) "domain 1 cpu accumulates" 0.4
      d1.Obs.Profiler.cpu_s;
    Alcotest.(check (float 1e-9)) "domain 1 minor words accumulate" 1000.
      d1.Obs.Profiler.minor_words;
    Alcotest.(check int) "domain 1 minor collections" 2
      d1.Obs.Profiler.minor_collections;
    Alcotest.(check int) "domain 1 major collections" 1
      d1.Obs.Profiler.major_collections
  | stats -> Alcotest.failf "expected 2 domains, got %d" (List.length stats));
  Obs.Profiler.sample_gc prof;
  let snapshot = Obs.Profiler.snapshot_json prof in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (Json.member key snapshot <> None))
    [ "phases"; "domains"; "gc"; "registry" ]

let test_profiler_gc_delta () =
  let before = Obs.Profiler.gc_now () in
  let keep = ref [] in
  for i = 1 to 10_000 do
    keep := string_of_int i :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  (* quick_stat omits words still in the live minor arena; empty it so
     the allocations above become visible in the counters. *)
  Gc.minor ();
  let delta = Obs.Profiler.gc_delta ~before ~after:(Obs.Profiler.gc_now ()) in
  Alcotest.(check bool) "allocation observed" true
    (Obs.Profiler.allocated_words delta > 0.)

(* -- Bench gate ---------------------------------------------------------- *)

let obs_doc overhead_full =
  Json.Assoc
    [
      ("repeats", Json.Int 5);
      ( "variants",
        Json.List
          [
            Json.Assoc
              [
                ("variant", Json.String "tracing disabled");
                ("mean_s", Json.Float 0.1);
                ("overhead", Json.Float 1.0);
              ];
            Json.Assoc
              [
                ("variant", Json.String "full file sinks");
                ("mean_s", Json.Float (0.1 *. overhead_full));
                ("overhead", Json.Float overhead_full);
              ];
          ] );
    ]

let test_gate_flatten_keys_by_variant () =
  let paths = List.map fst (Obs.Bench_gate.flatten (obs_doc 2.0)) in
  Alcotest.(check bool) "variant-keyed path" true
    (List.mem "variants.full file sinks.overhead" paths)

let test_gate_passes_within_threshold () =
  let report =
    Obs.Bench_gate.compare_json ~baseline:(obs_doc 2.0) ~current:(obs_doc 2.3) ()
  in
  Alcotest.(check bool) "15% growth under the 25% threshold" true
    (Obs.Bench_gate.ok report)

let test_gate_fails_on_regression () =
  let report =
    Obs.Bench_gate.compare_json ~baseline:(obs_doc 2.0) ~current:(obs_doc 2.8) ()
  in
  Alcotest.(check bool) "40% growth regresses" false (Obs.Bench_gate.ok report);
  match Obs.Bench_gate.regressions report with
  | [ d ] ->
    Alcotest.(check string) "the overhead leaf" "variants.full file sinks.overhead"
      d.Obs.Bench_gate.path
  | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds)

let test_gate_speedup_lower_is_worse () =
  let doc speedup =
    Json.Assoc
      [
        ( "targets",
          Json.List
            [
              Json.Assoc
                [
                  ("target", Json.String "stoppage sweep");
                  ("serial_s", Json.Float 10.);
                  ("speedup", Json.Float speedup);
                ];
            ] );
      ]
  in
  Alcotest.(check bool) "speedup gain passes" true
    (Obs.Bench_gate.ok (Obs.Bench_gate.compare_json ~baseline:(doc 2.) ~current:(doc 3.) ()));
  Alcotest.(check bool) "speedup collapse regresses" false
    (Obs.Bench_gate.ok (Obs.Bench_gate.compare_json ~baseline:(doc 2.) ~current:(doc 1.) ()))

let test_gate_missing_tracked_fails () =
  let report =
    Obs.Bench_gate.compare_json ~baseline:(obs_doc 2.0)
      ~current:(Json.Assoc [ ("repeats", Json.Int 5) ])
      ()
  in
  Alcotest.(check bool) "missing tracked metric fails" false (Obs.Bench_gate.ok report);
  Alcotest.(check bool) "reported as missing" true
    (List.mem "variants.full file sinks.overhead" report.Obs.Bench_gate.missing_tracked)

let test_gate_absolutes_informational () =
  (* Wall-clock absolutes may drift arbitrarily without failing. *)
  let base = obs_doc 2.0 in
  let current =
    Json.Assoc
      [
        ("repeats", Json.Int 5);
        ( "variants",
          Json.List
            [
              Json.Assoc
                [
                  ("variant", Json.String "tracing disabled");
                  ("mean_s", Json.Float 0.9);
                  ("overhead", Json.Float 1.0);
                ];
              Json.Assoc
                [
                  ("variant", Json.String "full file sinks");
                  ("mean_s", Json.Float 1.9);
                  ("overhead", Json.Float 2.1);
                ];
            ] );
      ]
  in
  Alcotest.(check bool) "9x slower wall-clock still passes" true
    (Obs.Bench_gate.ok (Obs.Bench_gate.compare_json ~baseline:base ~current ()))

let test_gate_neutral_slackens_lucky_baseline () =
  (* A chaos run can legitimately land below 1.0 overhead (faults drop
     messages). Drifting back to the neutral must not fail; moving past
     the neutral by the threshold must. *)
  let doc overhead = Json.Assoc [ ("overhead", Json.Float overhead) ] in
  Alcotest.(check bool) "0.69 -> 1.0 passes (return to neutral)" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 0.69) ~current:(doc 1.0) ()));
  Alcotest.(check bool) "0.69 -> 1.2 passes (within threshold of neutral)" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 0.69) ~current:(doc 1.2) ()));
  Alcotest.(check bool) "0.69 -> 1.3 regresses (past neutral + threshold)" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 0.69) ~current:(doc 1.3) ()));
  (* A baseline already above neutral keeps gating against itself. *)
  Alcotest.(check bool) "2.0 -> 2.8 still regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 2.0) ~current:(doc 2.8) ()))

let test_gate_slowdown_tracked () =
  let doc v = Json.Assoc [ ("slowdown", Json.Float v) ] in
  Alcotest.(check bool) "slowdown growth past neutral regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 1.1) ~current:(doc 1.6) ()));
  Alcotest.(check bool) "slowdown shrink passes" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 1.1) ~current:(doc 0.8) ()))

let test_gate_words_per_event_tracked () =
  (* Allocation per event is deterministic, so it gates with no neutral:
     growth past the threshold fails, shrinking never does. *)
  let doc v = Json.Assoc [ ("words_per_event", Json.Float v) ] in
  Alcotest.(check bool) "within threshold passes" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 400.) ~current:(doc 450.) ()));
  Alcotest.(check bool) "allocation bloat regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 400.) ~current:(doc 600.) ()));
  Alcotest.(check bool) "allocation reduction passes" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 400.) ~current:(doc 150.) ()))

let parallel_doc ~degenerate ~speedup =
  Json.Assoc
    ([ ("requested_jobs", Json.Int 4); ("effective_jobs", Json.Int 1) ]
    @ (if degenerate then [ ("degenerate", Json.Bool true) ] else [])
    @ [
        ( "targets",
          Json.List
            [
              Json.Assoc
                [
                  ("target", Json.String "stoppage sweep");
                  ("speedup", Json.Float speedup);
                ];
            ] );
      ])

let test_gate_degenerate_skips_tracked () =
  (* Current artifact degenerate while the baseline pin was live: the
     gate stopped measuring what it gates. That used to pass all-green;
     it is now a distinct failure with its own report bucket... *)
  let report =
    Obs.Bench_gate.compare_json
      ~baseline:(parallel_doc ~degenerate:false ~speedup:2.0)
      ~current:(parallel_doc ~degenerate:true ~speedup:1.0)
      ()
  in
  Alcotest.(check bool) "live pin gone degenerate fails the gate" false
    (Obs.Bench_gate.ok report);
  Alcotest.(check (list string))
    "degenerate_current names the path"
    [ "targets.stoppage sweep.speedup" ]
    report.Obs.Bench_gate.degenerate_current;
  Alcotest.(check bool) "not conflated with baseline-degenerate skips" true
    (report.Obs.Bench_gate.skipped = []);
  Alcotest.(check bool) "not conflated with value regressions" true
    (Obs.Bench_gate.regressions report = []);
  (* ... and the opt-out demotes it to a warning for intentional
     environment changes. *)
  let allowed =
    Obs.Bench_gate.compare_json ~allow_degenerate_current:true
      ~baseline:(parallel_doc ~degenerate:false ~speedup:2.0)
      ~current:(parallel_doc ~degenerate:true ~speedup:1.0)
      ()
  in
  Alcotest.(check bool) "--allow-degenerate passes" true
    (Obs.Bench_gate.ok allowed);
  Alcotest.(check (list string))
    "still surfaced when allowed"
    [ "targets.stoppage sweep.speedup" ]
    allowed.Obs.Bench_gate.degenerate_current;
  (* The degenerate subtree is enumerated (document root here, the
     [degenerate:true] member sits at top level) and named on the
     verdict line — a gate that measured nothing must say so. *)
  Alcotest.(check (list string))
    "degenerate subtree enumerated" [ "" ]
    report.Obs.Bench_gate.degenerate_subtrees;
  let rendered = Format.asprintf "%a" Obs.Bench_gate.pp_report report in
  Alcotest.(check bool) "verdict line names the skipped subtree" true
    (let needle = "1 degenerate subtree skipped: (root)" in
     let nlen = String.length needle in
     let rec has i =
       i + nlen <= String.length rendered
       && (String.sub rendered i nlen = needle || has (i + 1))
     in
     has 0);
  (* Degenerate baseline also skips, including the missing-tracked check. *)
  let report =
    Obs.Bench_gate.compare_json
      ~baseline:(parallel_doc ~degenerate:true ~speedup:1.0)
      ~current:(Json.Assoc [ ("requested_jobs", Json.Int 4) ])
      ()
  in
  Alcotest.(check bool) "degenerate baseline never demands the metric" true
    (Obs.Bench_gate.ok report);
  Alcotest.(check bool) "absent metric reported as skipped, not missing" true
    (List.mem "targets.stoppage sweep.speedup" report.Obs.Bench_gate.skipped);
  (* Neither side degenerate: the same collapse fails as before. *)
  Alcotest.(check bool) "non-degenerate collapse still regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json
          ~baseline:(parallel_doc ~degenerate:false ~speedup:2.0)
          ~current:(parallel_doc ~degenerate:false ~speedup:1.0)
          ()))

(* -- Suite --------------------------------------------------------------- *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "trace_pipeline"
    [
      ( "sink",
        [
          tc "size bound" `Quick test_sink_size_bound;
          tc "explicit flush" `Quick test_sink_explicit_flush;
          tc "time bound on simulated time" `Quick test_sink_time_bound;
          tc "close semantics" `Quick test_sink_close_semantics;
          tc "flush on exception" `Quick test_sink_flush_on_exception;
          tc "append and reopen" `Quick test_sink_append_reopen;
          tc "series buffers rows" `Quick test_series_buffers_rows;
        ] );
      ( "binary trace",
        [
          tc "taxonomy round-trip" `Quick test_btrace_round_trip_taxonomy;
          tc "smaller than jsonl" `Quick test_btrace_smaller_than_jsonl;
          tc "truncation detected" `Quick test_btrace_truncation_detected;
          tc "bad magic rejected" `Quick test_btrace_bad_magic;
          tc "dangling intern ref rejected" `Quick test_btrace_bad_intern_ref;
          tc "trailing record bytes rejected" `Quick test_btrace_trailing_bytes_in_record;
          QCheck_alcotest.to_alcotest test_btrace_qcheck_round_trip;
        ] );
      ( "trace files",
        [
          tc "format detection" `Quick test_trace_file_detect;
          tc "jsonl iteration is line-tolerant" `Quick test_trace_file_iter_jsonl_tolerant;
          tc "binary iteration stops at corruption" `Quick test_trace_file_iter_binary_stops;
          tc "run encodings agree" `Slow test_run_trace_encodings_agree;
        ] );
      ( "view fast path",
        [
          tc "to_view agrees with of_json" `Quick test_view_agrees_with_json;
          tc "write_jsonl byte parity" `Quick test_write_jsonl_byte_parity;
          tc "binary sink byte parity" `Quick test_binary_sink_byte_parity;
          tc "codec allocation per event" `Quick test_codec_allocation;
          tc "analyzer parity json vs view" `Quick test_analyzer_parity_json_vs_view;
        ] );
      ( "emit short-circuit",
        [
          tc "bound below interest skips the thunk" `Quick test_emit_bound_skips_thunk;
          tc "call-site bounds lose no events" `Slow test_emit_severity_parity;
        ] );
      ( "profiler",
        [
          tc "phase accounting" `Quick test_profiler_phases;
          tc "domains and snapshot" `Quick test_profiler_domains_and_snapshot;
          tc "gc delta" `Quick test_profiler_gc_delta;
        ] );
      ( "bench gate",
        [
          tc "flatten keys lists by variant" `Quick test_gate_flatten_keys_by_variant;
          tc "within threshold passes" `Quick test_gate_passes_within_threshold;
          tc "regression fails" `Quick test_gate_fails_on_regression;
          tc "speedup is lower-is-worse" `Quick test_gate_speedup_lower_is_worse;
          tc "missing tracked metric fails" `Quick test_gate_missing_tracked_fails;
          tc "absolutes are informational" `Quick test_gate_absolutes_informational;
          tc "neutral slackens lucky baselines" `Quick
            test_gate_neutral_slackens_lucky_baseline;
          tc "slowdown is tracked" `Quick test_gate_slowdown_tracked;
          tc "words_per_event is tracked" `Quick test_gate_words_per_event_tracked;
          tc "degenerate prefixes skip the gate" `Quick
            test_gate_degenerate_skips_tracked;
        ] );
    ]
