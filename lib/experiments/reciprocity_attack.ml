module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type row = {
  fraction : float;
  defections : int;
  honest_votes : int;
  friction : float;
  cost_ratio : float;
  delay_ratio : float;
}

let mean_count counts =
  int_of_float
    (Float.round
       (float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts)))

let sweep ?(scale = Scenario.bench) ?(fractions = [ 0.1; 0.2; 0.3 ]) ?(rate = 5.) () =
  let cfg = Scenario.config scale in
  let years = scale.Scenario.years in
  let run fraction seed =
    match fraction with
    | None -> (Scenario.run_one ~cfg ~seed ~years Scenario.No_attack, 0, 0)
    | Some fraction ->
      let population = Lockss.Population.create ~seed cfg in
      let attack =
        Adversary.Reciprocity.attach population ~fraction
          ~attempts_per_victim_au_per_day:rate
      in
      Lockss.Population.run population ~until:(Duration.of_years years);
      ( Lockss.Population.summary population,
        Adversary.Reciprocity.defections attack,
        Adversary.Reciprocity.honest_votes attack )
  in
  let seeds = List.init scale.Scenario.runs (fun i -> scale.Scenario.seed + i) in
  let mean runs = Scenario.mean_summaries (List.map (fun (s, _, _) -> s) runs) in
  (* The baseline and each compromised fraction are independent jobs, and
     each runs the same seeds, so both sides of every row average the
     same seed set. *)
  match
    Runner.map
      (fun fraction -> List.map (run fraction) seeds)
      (None :: List.map Option.some fractions)
  with
  | [] -> assert false
  | baseline :: rows ->
    List.map2
      (fun fraction runs ->
        let c = Scenario.ratios ~baseline:(mean baseline) ~attack:(mean runs) in
        {
          fraction;
          defections = mean_count (List.map (fun (_, d, _) -> d) runs);
          honest_votes = mean_count (List.map (fun (_, _, h) -> h) runs);
          friction = c.Scenario.friction;
          cost_ratio = c.Scenario.cost_ratio;
          delay_ratio = c.Scenario.delay_ratio;
        })
      fractions rows

let brute_force_reference ?(scale = Scenario.bench) () =
  let cfg = Scenario.config scale in
  let baseline = Scenario.run_avg ~cfg scale Scenario.No_attack in
  let summary =
    Scenario.run_avg ~cfg scale
      (Scenario.Brute_force
         { strategy = Adversary.Brute_force.Remaining; rate = 5.; identities = 50 })
  in
  (Scenario.ratios ~baseline ~attack:summary).Scenario.friction

let to_table rows =
  let table =
    Table.create
      [
        "compromised";
        "defections";
        "honest rebuild votes";
        "friction";
        "cost ratio";
        "delay ratio";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Report.pct r.fraction;
          string_of_int r.defections;
          string_of_int r.honest_votes;
          Report.ratio r.friction;
          Report.ratio r.cost_ratio;
          Report.ratio r.delay_ratio;
        ])
    rows;
  table
