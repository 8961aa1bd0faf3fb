(* The per-layer metrics of the traced run, in report order, with
   units. Every name is emitted on every workload; a layer a workload
   does not exercise reads 0 (the runner outside [sweep-pool], the
   trace sink and auditor outside [hostile-audited]). *)

let timer_classes =
  [ "ack_timeout"; "vote_timeout"; "proof_timeout"; "receipt_timeout"; "repair_timeout" ]

let fault_kinds = [ "dropped"; "duplicated"; "delayed"; "corrupted"; "replayed"; "stale"; "stray" ]

let all =
  List.concat
    [
      [
        ("setup.alloc_mwords", "Mwords"); ("setup.live_mb", "MB");
        ("setup.major_collections", "count");
        ("engine.executed", "count"); ("engine.scheduled", "count");
        ("engine.cancelled", "count"); ("engine.cancel_ratio", "ratio");
        ("engine.max_heap_depth", "count");
      ];
      List.map (fun c -> ("engine.live." ^ c, "count")) timer_classes;
      [
        ("engine.self_s", "s"); ("engine.ns_per_event", "ns");
        ("net.sent", "count"); ("net.delivered", "count"); ("net.bytes_delivered", "bytes");
        ("net.delivery_ratio", "ratio"); ("net.dropped", "count");
        ("net.partition_dropped", "count"); ("net.fault_dropped", "count");
        ("net.injected", "count");
      ];
      List.map (fun k -> ("faults." ^ k, "count")) fault_kinds;
      List.concat_map
        (fun k ->
          [
            (Printf.sprintf "handler.%s.calls" k, "count");
            (Printf.sprintf "handler.%s.self_s" k, "s");
            (Printf.sprintf "handler.%s.words_per_call" k, "words");
          ])
        (Array.to_list Probe.kinds);
      List.map
        (fun r -> ("handler.rejected." ^ Lockss.Trace.reject_reason_to_string r, "count"))
        (Array.to_list Probe.reasons);
      [
        ("admission.admit_ratio", "ratio"); ("poller.success_ratio", "ratio");
        ("voter.votes_supplied", "count");
        ("trace.events", "count"); ("trace.sink_s", "s");
        ("trace.sink_words_per_event", "words"); ("trace.bytes", "bytes");
        ("trace.bytes_per_event", "bytes"); ("trace.run_s", "s"); ("trace.overhead_s", "s");
        ("trace.overhead_mwords", "Mwords");
        ("auditor.feed_s", "s"); ("auditor.violations", "count"); ("leak.findings", "count");
        ("runner.tasks", "count"); ("runner.task_s.p50", "s"); ("runner.task_s.p90", "s");
        ("runner.task_s.max", "s"); ("runner.slot0.busy_s", "s"); ("runner.slot0.cpu_s", "s");
        ("runner.slot1.busy_s", "s"); ("runner.slot1.cpu_s", "s"); ("runner.idle_frac", "ratio");
        ("gc.minor_collections", "count"); ("gc.major_collections", "count");
        ("gc.promoted_mwords", "Mwords");
      ];
    ]
