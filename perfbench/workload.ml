(* The four benchmark workloads: what each one runs, at full and at toy
   size. Everything here is built from public entry points of the
   simulator; the workload seed is the only input that varies. *)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario

type kind = Steady | Hostile | Bootstrap | Sweep
type size = Full | Toy

let all = [ Steady; Hostile; Bootstrap; Sweep ]

let name = function
  | Steady -> "steady-1k"
  | Hostile -> "hostile-audited"
  | Bootstrap -> "bootstrap-5k"
  | Sweep -> "sweep-pool"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Worker domains used by [Sweep]. Fixed rather than taken from the host,
   so the workload is the same job on every machine with two cores. *)
let sweep_jobs = 2

(* Domains a workload keeps busy. *)
let domains = function Sweep -> sweep_jobs | Steady | Hostile | Bootstrap -> 1

(* Scale of one simulated deployment. [Sweep] uses [Scenario.bench],
   which the stoppage sweep fans out over its grid. *)
let scale kind size ~seed =
  match (kind, size) with
  | Steady, Full ->
    { Scenario.peers = 1_000; aus = 2; quorum = 5; max_disagree = 1;
      outer_circle = 3; reference_target = 15; years = 0.5; runs = 1; seed }
  | Steady, Toy ->
    { Scenario.peers = 60; aus = 2; quorum = 5; max_disagree = 1;
      outer_circle = 3; reference_target = 15; years = 0.6; runs = 1; seed }
  | Hostile, Full -> { Scenario.paper with aus = 4; years = 0.3; runs = 1; seed }
  | Hostile, Toy -> { Scenario.paper with peers = 30; aus = 2; years = 0.3; runs = 1; seed }
  | Bootstrap, Full ->
    { Scenario.peers = 5_000; aus = 2; quorum = 5; max_disagree = 1;
      outer_circle = 3; reference_target = 15; years = 0.15; runs = 1; seed }
  | Bootstrap, Toy ->
    { Scenario.peers = 300; aus = 2; quorum = 5; max_disagree = 1;
      outer_circle = 3; reference_target = 15; years = 0.01; runs = 1; seed }
  | Sweep, Full -> { Scenario.bench with seed }
  | Sweep, Toy -> { Scenario.bench with peers = 12; aus = 2; years = 0.2; runs = 1; seed }

(* Set-ups repeated after the measured run, so that [setup_s] is a
   median of several even where one set-up takes milliseconds. *)
let extra_setups = function Steady -> 4 | Hostile -> 16 | Bootstrap -> 0 | Sweep -> 9

(* [Hostile] runs the adversary families of an attrition attacker at
   once — brute-force admission with the proof withheld, plus a garbage
   invitation flood — over the acceptance fault mix of the chaos
   harness, whose fault stream is seeded from the workload seed. *)
let attack kind ~horizon =
  match kind with
  | Steady | Bootstrap | Sweep -> Scenario.No_attack
  | Hostile ->
    Scenario.Combined
      [
        Scenario.Brute_force
          { strategy = Adversary.Brute_force.Remaining; rate = 5.; identities = 50 };
        Scenario.Admission_flood
          { coverage = 1.0; duration = horizon; recuperation = Duration.of_days 30.;
            rate = 4. };
      ]

let config kind size ~seed =
  let s = scale kind size ~seed in
  let cfg = Scenario.config s in
  match kind with
  | Hostile ->
    let mix = { Experiments.Chaos.default_mix with fault_seed = seed } in
    { cfg with Lockss.Config.faults = Some (Experiments.Chaos.faults_config mix) }
  | Steady | Bootstrap | Sweep -> cfg

(* The stoppage grid of [Sweep], in [Stoppage.sweep]'s order: coverage
   outer, duration inner. *)
let sweep_grid size =
  let durations, coverages =
    match size with
    | Full -> (Experiments.Stoppage.default_durations, Experiments.Stoppage.default_coverages)
    | Toy -> ([ Duration.of_days 10.; Duration.of_days 90. ], [ 0.3; 1.0 ])
  in
  (durations, coverages,
   List.concat_map (fun c -> List.map (fun d -> (c, d)) durations) coverages)

(* Loyal replicas times simulated years, summed over every run the
   workload performs. A sweep runs one baseline job plus one job per
   cell, each averaging [runs] seeds. *)
let replica_years kind size =
  let s = scale kind size ~seed:0 in
  let one = float_of_int (s.Scenario.peers * s.Scenario.aus) *. s.Scenario.years in
  match kind with
  | Steady | Hostile | Bootstrap -> one
  | Sweep ->
    let _, _, grid = sweep_grid size in
    one *. float_of_int ((1 + List.length grid) * s.Scenario.runs)
