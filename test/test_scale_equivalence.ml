(* Seeded equivalence battery for the population-representation layer.

   Every case below renders a seeded scenario to a byte-exact string
   (summaries, a faulted seed's counters, soak reports, debug-trace
   digests, analyzer reports) and compares its MD5 against a pinned
   golden. The goldens were generated from the
   list-based population representation, so any compact-representation
   change that perturbs an RNG draw sequence, a member ordering, or a
   trace line fails here byte-for-byte — this is the lock on the
   "summaries and traces identical at paper scale" contract.

   Regenerate (only when behaviour is MEANT to change) with:

     GOLDEN_REGEN=$PWD/test/goldens/scale_equivalence.golden \
       dune exec test/test_scale_equivalence.exe
*)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario
module Chaos = Experiments.Chaos
module Runner = Experiments.Runner

(* Under [dune runtest] the cwd is _build/default/test (the goldens are
   declared as test deps); under [dune exec] from the workspace root it
   is the root itself. *)
let golden_file =
  List.find Sys.file_exists
    [ "goldens/scale_equivalence.golden"; "test/goldens/scale_equivalence.golden" ]

(* Paper scale, shortened horizon: 100 peers x 50 AUs is the population
   the acceptance criterion names; 0.1 years keeps the battery fast
   while still completing several poll generations per AU. *)
let paper_short = { Scenario.paper with Scenario.years = 0.1; runs = 2 }

let digest s = Digest.to_hex (Digest.string s)

let summary_string s = Format.asprintf "%a" Lockss.Metrics.pp_summary s

let with_temp_file f =
  let path = Filename.temp_file "scale-equiv" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* -- Cases --------------------------------------------------------------- *)

(* Serial paper-scale run with a full debug trace: the trace digest pins
   event ordering, reference-list member order (Poll_sampled carries the
   whole reference list) and every payload byte. *)
let run_trace trace_format =
  let cfg = Scenario.config paper_short in
  with_temp_file (fun path ->
      let observe =
        {
          Scenario.default_observe with
          Scenario.trace_out = Some path;
          trace_level = Lockss.Trace.Debug;
          trace_format;
        }
      in
      let summary =
        Scenario.run_one ~observe ~cfg ~seed:1 ~years:0.05 Scenario.No_attack
      in
      let trace_path = Scenario.seeded_path path ~seed:1 in
      let trace_digest = Digest.to_hex (Digest.file trace_path) in
      Sys.remove trace_path;
      summary_string summary ^ "\ntrace:" ^ trace_digest)

let case_run_trace () = run_trace `Jsonl

(* The same run through the binary sink: pins the [.ntrace] bytes —
   intern ids, atom order and record framing — independently of the
   JSONL digest above. *)
let case_run_trace_binary () = run_trace `Binary

(* The same multi-run sweep with 1 and 2 worker domains must agree with
   each other and with the pinned golden (the Runner determinism
   contract, re-checked here because the compact structures are shared
   nowhere but must not accidentally become shared). *)
let case_run_parallel () =
  let cfg = Scenario.config paper_short in
  let sweep jobs =
    Runner.map ~jobs
      (fun i ->
        summary_string
          (Scenario.run_one ~cfg ~seed:(1 + i) ~years:paper_short.Scenario.years
             Scenario.No_attack))
      (List.init paper_short.Scenario.runs Fun.id)
  in
  let serial = sweep 1 in
  let parallel = sweep 2 in
  if serial <> parallel then
    Alcotest.fail "serial and parallel sweeps disagree before golden check";
  String.concat "\n---\n" serial

(* Partial AU coverage drives the sparse holder-assignment path (each AU
   holds on a sampled subset instead of everyone). *)
let case_run_sparse_holdings () =
  let cfg = { (Scenario.config paper_short) with Lockss.Config.au_coverage = 0.5 } in
  summary_string (Scenario.run_one ~cfg ~seed:2 ~years:0.1 Scenario.No_attack)

(* Dormant nodes join the identity space (and consume setup RNG draws)
   without participating until activated; the representation must keep
   them out of holder iteration exactly as the matrix did. *)
let case_run_dormant () =
  let cfg = Scenario.config { Scenario.bench with Scenario.years = 0.5 } in
  let population = Lockss.Population.create ~seed:5 ~dormant:5 cfg in
  Lockss.Population.run population ~until:(Duration.of_years 0.5);
  summary_string (Lockss.Population.summary population)

(* An admission-flood attack exercises nomination, admission dedup and
   the introduction machinery — the hot paths the refactor touches. *)
let case_run_attack () =
  let cfg = Scenario.config Scenario.bench in
  let attack =
    Scenario.Admission_flood
      {
        coverage = 0.5;
        duration = Duration.of_days 90.;
        recuperation = Duration.of_days 30.;
        rate = 4.;
      }
  in
  summary_string (Scenario.run_one ~cfg ~seed:3 ~years:1.0 attack)

(* Soak at paper scale, two seeds: pins per-seed poll counts, rejection
   histograms and every violation (auditor, leak audit, harness checks)
   as JSON. *)
let case_soak () =
  let report =
    Chaos.soak ~scale:paper_short ~seeds:[ 1; 2 ] Chaos.default_mix
  in
  Obs.Json.to_string (Chaos.soak_json report)

(* One audited faulted seed at paper scale and its fault-free pair:
   every number the fault harness reads — the faulted summary, the
   injector's counters, the engine's pending population at the
   horizon's midpoint and end, the auditor's and the leak audit's
   violations — and the fault-free summary it is measured against. *)
let case_faulted_seed () =
  let scale = { paper_short with Scenario.seed = 4 } in
  let r = Chaos.run_seed ~scale ~seed:4 Chaos.default_mix in
  let f = Option.get (Lockss.Population.faults r.Chaos.population) in
  let net = (Lockss.Population.ctx r.Chaos.population).Lockss.Peer.net in
  let fault_free =
    Scenario.run_one ~cfg:(Scenario.config scale) ~seed:4 ~years:scale.Scenario.years
      Scenario.No_attack
  in
  let violations vs =
    String.concat "" (List.map (Format.asprintf "%a\n" Check.Invariant.pp_violation) vs)
  in
  String.concat "\n"
    [
      summary_string r.Chaos.summary;
      Printf.sprintf
        "faults: dropped %d duplicated %d delayed %d corrupted %d replayed %d stale %d \
         stray %d crashes %d restarts %d down %d"
        (Narses.Faults.dropped_count f) (Narses.Faults.duplicated_count f)
        (Narses.Faults.delayed_count f) (Narses.Faults.corrupted_count f)
        (Narses.Faults.replayed_count f) (Narses.Faults.stale_count f)
        (Narses.Faults.stray_count f) (Narses.Faults.crash_count f)
        (Narses.Faults.restart_count f) (Narses.Faults.down_count f);
      Printf.sprintf "net: sent %d delivered %d dropped %d injected %d"
        (Narses.Net.sent_count net) (Narses.Net.delivered_count net)
        (Narses.Net.dropped_count net) (Narses.Net.injected_count net);
      Printf.sprintf "pending: mid %d end %d" r.Chaos.pending_mid r.Chaos.pending_end;
      "audit:\n" ^ violations r.Chaos.audit;
      "leaks:\n" ^ violations r.Chaos.leaks;
      "fault-free:\n" ^ summary_string fault_free;
    ]

(* The analyzers on an attacked run, byte for byte: the live span and
   ledger files the observed run wrote, the offline report of the Debug
   trace that same run wrote, and the auditor's report of that trace.
   Brute force yields orphan anomalies (adversary pollers never announce
   their polls) and adversary effort, so every report section has data. *)
let case_analyze () =
  let cfg = Scenario.config paper_short in
  let attack =
    Scenario.Brute_force
      { strategy = Adversary.Brute_force.Remaining; rate = 5.; identities = 50 }
  in
  with_temp_file (fun trace ->
      let spans = trace ^ ".spans" and ledger = trace ^ ".ledger" in
      let observe =
        {
          Scenario.default_observe with
          Scenario.trace_out = Some trace;
          trace_level = Lockss.Trace.Debug;
          spans_out = Some spans;
          ledger_out = Some ledger;
        }
      in
      ignore (Scenario.run_one ~observe ~cfg ~seed:1 ~years:0.05 attack);
      let seeded path = Scenario.seeded_path path ~seed:1 in
      let read path =
        let path = seeded path in
        let s = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        s
      in
      let analyzer = Check.Analyze.create () in
      let auditor = Scenario.make_auditor ~cfg () in
      ignore
        (Lockss.Trace.iter_file (seeded trace) ~f:(fun ~line record ->
             Check.Analyze.feed_record analyzer ~line record;
             Check.Auditor.feed_record auditor ~line record));
      Check.Auditor.finish auditor;
      let live = read spans ^ read ledger in
      ignore (read trace);
      String.concat "\n---\n"
        [
          live;
          Obs.Json.to_string (Check.Analyze.report_json analyzer);
          Obs.Json.to_string (Check.Auditor.report_json auditor);
        ])

let cases =
  [
    ("run-trace", case_run_trace);
    ("run-parallel", case_run_parallel);
    ("run-sparse-holdings", case_run_sparse_holdings);
    ("run-dormant", case_run_dormant);
    ("run-attack", case_run_attack);
    ("soak", case_soak);
    ("run-trace-binary", case_run_trace_binary);
    ("analyze", case_analyze);
    ("faulted-seed", case_faulted_seed);
  ]

(* -- Golden plumbing ----------------------------------------------------- *)

let load_goldens path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line ->
          (match String.index_opt line '=' with
          | Some i ->
            go
              ((String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1))
              :: acc)
          | None -> go acc)
      in
      go [])

let regen path =
  let only =
    match Sys.getenv_opt "GOLDEN_ONLY" with
    | None | Some "" -> fun _ -> true
    | Some names ->
      let names = String.split_on_char ',' names in
      fun name -> List.mem name names
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (name, case) ->
          if only name then begin
            let t0 = Unix.gettimeofday () in
            let d = digest (case ()) in
            Printf.fprintf oc "%s=%s\n" name d;
            Printf.printf "%s=%s (%.1fs)\n%!" name d (Unix.gettimeofday () -. t0)
          end)
        cases)

let check_case goldens name case () =
  match List.assoc_opt name goldens with
  | None -> Alcotest.fail (Printf.sprintf "no golden pinned for %s" name)
  | Some expected ->
    let actual = case () in
    let actual_digest = digest actual in
    if actual_digest <> expected then
      Alcotest.fail
        (Printf.sprintf
           "golden mismatch for %s: expected digest %s, got %s\n\
            --- actual output ---\n\
            %s"
           name expected actual_digest actual)

let () =
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some path when path <> "" -> regen path
  | _ ->
    let goldens = load_goldens golden_file in
    Alcotest.run "scale_equivalence"
      [
        ( "goldens",
          List.map
            (fun (name, case) ->
              Alcotest.test_case name `Slow (check_case goldens name case))
            cases );
      ]
