(* Correctness oracle behind [failed]: every run's output is checked
   before its timings count.

   - At the default seed, the digest of the run's [Metrics.summary] (of
     the stoppage rows, for the sweep) must equal the pinned one below,
     recorded when the benchmark was written: a change that alters any
     seeded result fails here.
   - At every seed, invariants that hold for any correct run: sane
     summary fields, a clean leak audit, zero auditor violations where
     the auditor runs. [run.py] also requires one digest across all
     runs of a seed, traced and untraced, which shows the
     instrumentation does not perturb the simulation. *)

let default_seed = 1

(* (workload, size) -> digest at [default_seed]. *)
let pinned =
  [
    (("steady-1k", "full"), "e2229084faefb42a37af4938a07add07");
    (("steady-1k", "toy"), "9e2f30bfb312e739847976645df4fe5c");
    (("hostile-audited", "full"), "2810ed35bd8417273d3e1e5400a1125e");
    (("hostile-audited", "toy"), "16e2eec5fa441f22a4f748cb0a9eb176");
    (("bootstrap-5k", "full"), "397212af697d94f4a94643bf0c728d06");
    (("bootstrap-5k", "toy"), "d45593ecaa4b522a385dd1b6c402b2f4");
    (("sweep-pool", "full"), "b5855fd95829cd052f8c18141dc41901");
    (("sweep-pool", "toy"), "a6332524aac5099bb384123cd10c44cf");
  ]

let hex x = Printf.sprintf "%h" x

let summary_fields (s : Lockss.Metrics.summary) =
  [
    hex s.horizon; string_of_int s.replicas; hex s.access_failure_probability;
    string_of_int s.polls_succeeded; string_of_int s.polls_inquorate;
    string_of_int s.polls_alarmed; hex s.mean_success_gap; hex s.loyal_effort;
    hex s.adversary_effort; hex s.effort_per_successful_poll;
    string_of_int s.invitations_considered; string_of_int s.invitations_dropped;
    string_of_int s.repairs; string_of_int s.repair_underflows;
    string_of_int s.votes_supplied; string_of_int s.reads; string_of_int s.reads_failed;
    hex s.empirical_read_failure;
  ]

let digest_of_fields fields = Digest.to_hex (Digest.string (String.concat ";" fields))
let summary_digest s = digest_of_fields (summary_fields s)

let row_fields (p : Experiments.Stoppage.point) =
  [ hex p.coverage; hex p.duration; hex p.access_failure; hex p.delay_ratio; hex p.friction ]

let rows_digest rows = digest_of_fields (List.concat_map row_fields rows)

(* Invariants of one simulated run at any seed; [] when all hold. *)
let summary_problems ~(scale : Experiments.Scenario.scale) ~(cfg : Lockss.Config.t)
    (s : Lockss.Metrics.summary) =
  let check ok what acc = if ok then acc else what :: acc in
  (* Polls start randomly phased over one inter-poll interval, so only a
     horizon of two intervals guarantees a concluded poll. *)
  let long = s.horizon >= 2. *. cfg.inter_poll_interval in
  []
  |> check (s.replicas = scale.peers * scale.aus) "replica count"
  |> check
       (Float.abs (s.horizon -. Repro_prelude.Duration.of_years scale.years) < 1.)
       "horizon"
  |> check
       (Float.is_finite s.access_failure_probability
       && s.access_failure_probability >= 0.
       && s.access_failure_probability <= 1.)
       "access failure probability out of [0, 1]"
  |> check ((not long) || s.polls_succeeded > 0) "no successful poll"
  |> check (s.repair_underflows = 0) "repair underflow"
  |> check (s.reads_failed <= s.reads) "failed reads exceed reads"

let row_problems (p : Experiments.Stoppage.point) =
  let ok x = not (Float.is_nan x) && x >= 0. in
  if ok p.access_failure && ok p.delay_ratio && ok p.friction && p.access_failure <= 1.
  then []
  else [ Printf.sprintf "stoppage cell %g/%g out of range" p.coverage p.duration ]

(* [expected ~override ~workload ~size ~seed] is the digest a run must
   reproduce, if any: the override when given, else the pin at the
   default seed. *)
let expected ~override ~workload ~size ~seed =
  match override with
  | Some d -> Some d
  | None -> if seed = default_seed then List.assoc_opt (workload, size) pinned else None

let digest_problems ~expected digest =
  match expected with
  | Some d when d <> digest -> [ Printf.sprintf "digest %s, pinned %s" digest d ]
  | _ -> []
