module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type point = {
  coverage : float;
  duration : float;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

let default_durations = List.map Duration.of_days [ 2.; 10.; 45.; 90.; 180. ]
let default_coverages = [ 0.1; 0.3; 0.5; 1.0 ]
let recuperation = Duration.of_days 30.

let grid ~attack ~scale ~durations ~coverages =
  let cfg = Scenario.config scale in
  let cells =
    List.concat_map
      (fun coverage -> List.map (fun duration -> (coverage, duration)) durations)
      coverages
  in
  (* The baseline and every grid point are independent averaged runs: one
     job each, fanned out over Runner workers, merged in grid order. *)
  let summaries =
    Runner.map
      (fun attack -> Scenario.run_avg ~cfg scale attack)
      (Scenario.No_attack
      :: List.map (fun (coverage, duration) -> attack ~coverage ~duration) cells)
  in
  match summaries with
  | [] -> assert false
  | baseline :: attacked ->
    List.map2
      (fun (coverage, duration) summary ->
        let c = Scenario.ratios ~baseline ~attack:summary in
        {
          coverage;
          duration;
          access_failure = c.Scenario.access_failure;
          delay_ratio = c.Scenario.delay_ratio;
          friction = c.Scenario.friction;
        })
      cells attacked

let sweep ?(scale = Scenario.bench) ?(durations = default_durations)
    ?(coverages = default_coverages) () =
  grid ~scale ~durations ~coverages ~attack:(fun ~coverage ~duration ->
      Scenario.Pipe_stoppage { coverage; duration; recuperation })

type metric = {
  key : string;
  label : string;
  header : string;
  ylabel : string;
  cell : float -> string;
  value : point -> float;
}

let access_failure =
  {
    key = "access_failure";
    label = "Access failure";
    header = "access failure prob.";
    ylabel = "access failure probability";
    cell = Report.sci;
    value = (fun p -> p.access_failure);
  }

let delay_ratio =
  {
    key = "delay_ratio";
    label = "Delay ratio";
    header = "delay ratio";
    ylabel = "delay ratio";
    cell = Report.ratio;
    value = (fun p -> p.delay_ratio);
  }

let friction =
  {
    key = "friction";
    label = "Coefficient of friction";
    header = "coeff. of friction";
    ylabel = "coefficient of friction";
    cell = Report.ratio;
    value = (fun p -> p.friction);
  }

let table metric points =
  let table = Table.create [ "coverage"; "attack duration"; metric.header ] in
  List.iter
    (fun p ->
      Table.add_row table
        [ Report.pct p.coverage; Report.days p.duration; metric.cell (metric.value p) ])
    points;
  table
