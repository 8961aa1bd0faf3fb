(* Tests for the result-baseline layer: Obs.Baseline comparison
   semantics and JSON round-trips, and Experiments.Registry capture —
   including the drift-injection check: a copied pin with one perturbed
   metric must fail the diff with an actionable per-metric delta — and
   the ties between the registry, the committed pins and the reports it
   renders. *)

module B = Obs.Baseline
module Json = Obs.Json
open Experiments

let micro =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 1.;
    runs = 1;
    seed = 5;
  }

let doc ?(experiment = "figX") ?(config = [ ("peers", Json.Int 15) ]) metrics =
  B.make ~experiment ~config metrics

(* -- Comparison semantics ------------------------------------------------ *)

let test_identical_ok () =
  let t = doc [ B.metric "af" 1.5e-3; B.metric "zero" 0.; B.metric "nan" nan ] in
  let report = B.compare ~baseline:t ~current:t in
  Alcotest.(check bool) "identical docs pass (NaN and zero included)" true
    (B.ok report);
  Alcotest.(check int) "no drifted deltas" 0 (List.length (B.drifted report))

let test_within_tolerance_ok () =
  let pinned = doc [ B.metric ~tolerance_pct:1.0 "af" 100. ] in
  let current = doc [ B.metric ~tolerance_pct:1.0 "af" 100.9 ] in
  Alcotest.(check bool) "0.9% move under a 1% tolerance passes" true
    (B.ok (B.compare ~baseline:pinned ~current))

let test_two_sided_drift () =
  let pinned = doc [ B.metric ~direction:B.Higher_is_worse "af" 100. ] in
  let up = doc [ B.metric "af" 101. ] in
  let down = doc [ B.metric "af" 99. ] in
  let verdict current =
    match B.drifted (B.compare ~baseline:pinned ~current) with
    | [ d ] -> d.B.verdict
    | _ -> Alcotest.fail "expected exactly one drifted metric"
  in
  (* Both directions fail — the science moved either way — but the
     direction labels which way. *)
  Alcotest.(check bool) "upward drift labelled worse" true
    (verdict up = B.Drift_worse);
  Alcotest.(check bool) "downward drift labelled better" true
    (verdict down = B.Drift_better)

let test_lower_is_worse_labels () =
  let pinned = doc [ B.metric ~direction:B.Lower_is_worse "cost_ratio" 2.0 ] in
  let collapsed = doc [ B.metric "cost_ratio" 1.0 ] in
  match B.drifted (B.compare ~baseline:pinned ~current:collapsed) with
  | [ d ] ->
    Alcotest.(check bool) "cost-ratio collapse is worse" true
      (d.B.verdict = B.Drift_worse)
  | _ -> Alcotest.fail "expected exactly one drifted metric"

let test_neutral_drift_unlabelled () =
  let pinned = doc [ B.metric ~direction:B.Neutral "mean" 1.0 ] in
  let current = doc [ B.metric "mean" 2.0 ] in
  match B.drifted (B.compare ~baseline:pinned ~current) with
  | [ d ] ->
    Alcotest.(check bool) "neutral metric drifts without a direction label" true
      (d.B.verdict = B.Drift)
  | _ -> Alcotest.fail "expected exactly one drifted metric"

let test_zero_pin_exact () =
  let pinned = doc [ B.metric "af" 0. ] in
  Alcotest.(check bool) "pinned zero accepts exact zero" true
    (B.ok (B.compare ~baseline:pinned ~current:(doc [ B.metric "af" 0. ])));
  Alcotest.(check bool) "pinned zero rejects any nonzero" false
    (B.ok (B.compare ~baseline:pinned ~current:(doc [ B.metric "af" 1e-12 ])))

let test_nan_vs_number_drifts () =
  let report =
    B.compare
      ~baseline:(doc [ B.metric "af" nan ])
      ~current:(doc [ B.metric "af" 0.5 ])
  in
  Alcotest.(check bool) "NaN pin vs number fails" false (B.ok report);
  match B.drifted report with
  | [ d ] ->
    Alcotest.(check bool) "undirected verdict for a NaN side" true
      (d.B.verdict = B.Drift)
  | _ -> Alcotest.fail "expected exactly one drifted metric"

let test_missing_added_config () =
  let pinned = doc ~config:[ ("peers", Json.Int 15) ] [ B.metric "a" 1. ] in
  let current = doc ~config:[ ("peers", Json.Int 25) ] [ B.metric "b" 1. ] in
  let report = B.compare ~baseline:pinned ~current in
  Alcotest.(check bool) "missing/added/config all fail the diff" false
    (B.ok report);
  Alcotest.(check (list string)) "missing metric" [ "a" ] report.B.missing;
  Alcotest.(check (list string)) "added metric" [ "b" ] report.B.added;
  Alcotest.(check int) "config mismatch surfaces" 1
    (List.length report.B.config_mismatch)

let test_config_numeric_equivalence () =
  (* The pretty writer prints 1.0 as "1", which parses back as Int:
     numerically equal Int/Float config values must not flag. *)
  let pinned = doc ~config:[ ("years", Json.Int 1) ] [ B.metric "a" 1. ] in
  let current = doc ~config:[ ("years", Json.Float 1.0) ] [ B.metric "a" 1. ] in
  Alcotest.(check bool) "Int 1 config equals Float 1.0" true
    (B.ok (B.compare ~baseline:pinned ~current))

(* -- JSON round-trip ----------------------------------------------------- *)

let test_json_round_trip () =
  let t =
    B.make ~experiment:"fig3"
      ~config:[ ("peers", Json.Int 15); ("years", Json.Float 0.5) ]
      ~provenance:[ ("git", Json.String "abc123") ]
      [
        B.metric ~direction:B.Higher_is_worse ~tolerance_pct:0.5 "af" 1.5e-3;
        B.metric ~direction:B.Lower_is_worse "cost" 2.0;
        B.metric ~direction:B.Neutral "mean" 0.25;
        B.metric "nan_metric" nan;
        B.metric "inf_metric" infinity;
        B.metric "neg_inf_metric" neg_infinity;
      ]
  in
  match B.of_json (B.to_json t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    Alcotest.(check string) "experiment" t.B.experiment t'.B.experiment;
    Alcotest.(check int) "metric count" (List.length t.B.metrics)
      (List.length t'.B.metrics);
    (* A round-tripped document diffs clean against the original —
       non-finite values included. *)
    Alcotest.(check bool) "round trip diffs clean" true
      (B.ok (B.compare ~baseline:t ~current:t'));
    let find name =
      List.find (fun (m : B.metric) -> m.B.name = name) t'.B.metrics
    in
    Alcotest.(check bool) "NaN survives" true
      (Float.is_nan (find "nan_metric").B.value);
    Alcotest.(check bool) "inf survives" true
      ((find "inf_metric").B.value = infinity);
    Alcotest.(check bool) "-inf survives" true
      ((find "neg_inf_metric").B.value = neg_infinity);
    Alcotest.(check (float 0.)) "tolerance survives" 0.5 (find "af").B.tolerance_pct;
    Alcotest.(check bool) "direction survives" true
      ((find "cost").B.direction = B.Lower_is_worse)

let test_of_json_rejects () =
  let reject name json =
    match B.of_json json with
    | Ok _ -> Alcotest.failf "%s: expected rejection" name
    | Error _ -> ()
  in
  reject "wrong schema"
    (Json.Assoc [ ("schema", Json.String "something-else/9") ]);
  reject "missing schema" (Json.Assoc [ ("experiment", Json.String "x") ]);
  let dup =
    B.to_json (doc [ B.metric "a" 1. ])
  in
  (match dup with
  | Json.Assoc fields ->
    let doubled =
      List.map
        (fun (k, v) ->
          match v with
          | Json.List ms when k = "metrics" -> (k, Json.List (ms @ ms))
          | _ -> (k, v))
        fields
    in
    reject "duplicate metric names" (Json.Assoc doubled)
  | _ -> Alcotest.fail "to_json did not produce an object")

let test_save_load () =
  let dir = Filename.temp_file "baseline" "" in
  Sys.remove dir;
  let t = doc ~experiment:"fig3" [ B.metric "af" 1.5e-3 ] in
  B.save ~dir t;
  let path = B.path ~dir "fig3" in
  Alcotest.(check bool) "file written" true (Sys.file_exists path);
  (match B.load path with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    Alcotest.(check bool) "saved pin diffs clean" true
      (B.ok (B.compare ~baseline:t ~current:t')));
  Sys.remove path;
  Unix.rmdir dir

(* -- Golden capture ------------------------------------------------------ *)

let sweeps = Registry.sweeps micro
let pinned_names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.pinned

let test_capture_targets () =
  List.iter
    (fun target ->
      match Registry.capture sweeps target with
      | Error msg -> Alcotest.fail msg
      | Ok t ->
        Alcotest.(check string) "experiment named after target" target
          t.B.experiment;
        Alcotest.(check bool)
          (target ^ " has metrics")
          true
          (List.length t.B.metrics > 0);
        (* Headlines are present for every target. *)
        Alcotest.(check bool)
          (target ^ " has a .worst headline")
          true
          (List.exists
             (fun (m : B.metric) ->
               String.length m.B.name > 6
               && String.sub m.B.name (String.length m.B.name - 6) 6 = ".worst")
             t.B.metrics))
    pinned_names;
  match Registry.capture sweeps "fig99" with
  | Ok _ -> Alcotest.fail "unknown target accepted"
  | Error _ -> ()

let test_capture_deterministic () =
  (* Two independent sweeps at the same scale capture identical
     documents — the property the whole pinning scheme rests on. *)
  let c1 = Registry.capture (Registry.sweeps micro) "fig3" in
  let c2 = Registry.capture (Registry.sweeps micro) "fig3" in
  match (c1, c2) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "re-captured sweep diffs clean" true
      (B.ok (B.compare ~baseline:a ~current:b))
  | _ -> Alcotest.fail "capture failed"

(* The acceptance check for the whole observatory: copy a pinned
   baseline, inject drift into one metric past its tolerance, and the
   diff must fail with that metric's name, values and verdict. *)
let test_drift_injection_on_copied_baseline () =
  let pinned =
    match Registry.capture sweeps "table1" with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  let dir = Filename.temp_file "baseline" "" in
  Sys.remove dir;
  B.save ~dir pinned;
  let loaded =
    match B.load (B.path ~dir "table1") with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  (* Perturb the first finite nonzero metric of the copy well past its
     tolerance; the perturbed copy plays the "pinned" side, the honest
     capture the "current" side — exactly the nightly-gate shape. *)
  let victim =
    match
      List.find_opt
        (fun (m : B.metric) -> Float.is_finite m.B.value && m.B.value <> 0.)
        loaded.B.metrics
    with
    | Some m -> m
    | None -> Alcotest.fail "no finite nonzero metric to perturb"
  in
  let perturbed =
    {
      loaded with
      B.metrics =
        List.map
          (fun (m : B.metric) ->
            if m.B.name = victim.B.name then
              { m with B.value = m.B.value *. 1.5 }
            else m)
          loaded.B.metrics;
    }
  in
  let report = B.compare ~baseline:perturbed ~current:pinned in
  Alcotest.(check bool) "perturbed pin fails the diff" false (B.ok report);
  (match B.drifted report with
  | [ d ] ->
    Alcotest.(check string) "delta names the perturbed metric" victim.B.name
      d.B.name;
    Alcotest.(check (float 1e-9)) "delta carries the pinned value"
      (victim.B.value *. 1.5) d.B.pinned;
    Alcotest.(check (float 1e-9)) "delta carries the current value"
      victim.B.value d.B.current;
    Alcotest.(check bool) "verdict is a drift" true (d.B.verdict <> B.Within)
  | ds -> Alcotest.failf "expected exactly one drifted metric, got %d"
            (List.length ds));
  (* And the rendered report carries the actionable re-pin hint. *)
  let rendered = Format.asprintf "%a" B.pp_report report in
  let contains needle haystack =
    let nlen = String.length needle in
    let rec go i =
      i + nlen <= String.length haystack
      && (String.sub haystack i nlen = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "report names the metric" true
    (contains victim.B.name rendered);
  Alcotest.(check bool) "report suggests re-pinning" true
    (contains "re-pin with pin-baseline" rendered);
  Sys.remove (B.path ~dir "table1");
  Unix.rmdir dir

let test_config_fingerprint_gates () =
  (* Sweeps run at another seed must fail on the fingerprint, not
     silently compare metric-by-metric. *)
  let capture sweeps =
    match Registry.capture sweeps "fig2" with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  let a = capture sweeps in
  let b = capture (Registry.sweeps { micro with Scenario.seed = 6 }) in
  let report = B.compare ~baseline:a ~current:b in
  Alcotest.(check bool) "scale change fails" false (B.ok report);
  Alcotest.(check bool) "the failure is a config mismatch" true
    (report.B.config_mismatch <> [])

(* -- The registry and its artifacts --------------------------------------- *)

(* Under [dune runtest] the cwd is _build/default/test (the pins are
   declared as test deps); under [dune exec] from the workspace root it
   is the root itself. *)
let pin_dir = lazy (List.find Sys.file_exists [ "../baselines"; "baselines" ])

let test_pins_match_registry () =
  let dir = Lazy.force pin_dir in
  let suffix = ".baseline.json" in
  let pinned_files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.map (fun f -> Filename.chop_suffix f suffix)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "one committed pin per pinned entry, and no other"
    (List.sort compare pinned_names) pinned_files;
  let default = Json.Assoc (Registry.config_fingerprint Scenario.default) in
  List.iter
    (fun name ->
      match B.load (B.path ~dir name) with
      | Error msg -> Alcotest.fail msg
      | Ok pin ->
        Alcotest.(check string) (name ^ " names its entry") name pin.B.experiment;
        Alcotest.(check string)
          (name ^ " is pinned at the CLI default scale")
          (Json.to_string default)
          (Json.to_string (Json.Assoc pin.B.config)))
    pinned_names

let test_every_entry_renders () =
  let small = { micro with Scenario.years = 0.5 } in
  let sweeps = Registry.sweeps small in
  List.iter
    (fun (entry : Registry.entry) ->
      let report = entry.Registry.report sweeps in
      Alcotest.(check bool) (entry.Registry.name ^ " reports") true (report <> []);
      List.iter
        (function
          | Registry.Table t ->
            Alcotest.(check bool)
              (entry.Registry.name ^ " table has rows")
              true
              (List.length
                 (List.filter (( <> ) "")
                    (String.split_on_char '\n' (Repro_prelude.Table.render t)))
              > 2)
          | Registry.Line l ->
            Alcotest.(check bool) (entry.Registry.name ^ " line") true (l <> ""))
        report)
    Registry.all

let () =
  Alcotest.run "baseline"
    [
      ( "compare",
        [
          Alcotest.test_case "identical ok" `Quick test_identical_ok;
          Alcotest.test_case "within tolerance" `Quick test_within_tolerance_ok;
          Alcotest.test_case "two-sided drift" `Quick test_two_sided_drift;
          Alcotest.test_case "lower-is-worse labels" `Quick
            test_lower_is_worse_labels;
          Alcotest.test_case "neutral drift" `Quick test_neutral_drift_unlabelled;
          Alcotest.test_case "zero pin exact" `Quick test_zero_pin_exact;
          Alcotest.test_case "nan vs number" `Quick test_nan_vs_number_drifts;
          Alcotest.test_case "missing/added/config" `Quick
            test_missing_added_config;
          Alcotest.test_case "config numeric equivalence" `Quick
            test_config_numeric_equivalence;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "rejects bad documents" `Quick test_of_json_rejects;
          Alcotest.test_case "save/load" `Quick test_save_load;
        ] );
      ( "golden",
        [
          Alcotest.test_case "all targets capture" `Quick test_capture_targets;
          Alcotest.test_case "capture deterministic" `Quick
            test_capture_deterministic;
          Alcotest.test_case "drift injection on a copied pin" `Quick
            test_drift_injection_on_copied_baseline;
          Alcotest.test_case "config fingerprint gates" `Quick
            test_config_fingerprint_gates;
        ] );
      ( "registry",
        [
          Alcotest.test_case "committed pins match the registry" `Quick
            test_pins_match_registry;
          Alcotest.test_case "every entry renders at micro scale" `Quick
            test_every_entry_renders;
        ] );
    ]
