module B = Obs.Baseline
module Json = Obs.Json
module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type sweeps = {
  scale : Scenario.scale;
  stoppage : Stoppage.point list Lazy.t;
  admission : Stoppage.point list Lazy.t;
  baseline : Baseline.point list Lazy.t;
  effort : Effort_attack.row list Lazy.t;
}

let sweeps scale =
  {
    scale;
    stoppage = lazy (Stoppage.sweep ~scale ());
    admission = lazy (Admission_attack.sweep ~scale ());
    baseline = lazy (Baseline.sweep ~scale ());
    effort = lazy (Effort_attack.sweep ~scale ());
  }

type block =
  | Table of Table.t
  | Line of string

let print = List.iter (function Table t -> Table.print t | Line l -> print_endline l)

type pin = direction:B.direction -> string -> float -> B.metric

type entry = {
  name : string;
  title : string;
  notes : string list;
  report : sweeps -> block list;
  plot : (dir:string -> sweeps -> unit) option;
  pins : (pin -> sweeps -> B.metric list) option;
}

let config_fingerprint (scale : Scenario.scale) =
  [
    ("peers", Json.Int scale.Scenario.peers);
    ("aus", Json.Int scale.Scenario.aus);
    ("quorum", Json.Int scale.Scenario.quorum);
    ("max_disagree", Json.Int scale.Scenario.max_disagree);
    ("outer_circle", Json.Int scale.Scenario.outer_circle);
    ("reference_target", Json.Int scale.Scenario.reference_target);
    ("years", Json.Float scale.Scenario.years);
    ("runs", Json.Int scale.Scenario.runs);
    ("seed", Json.Int scale.Scenario.seed);
  ]

(* -- Gnuplot ---------------------------------------------------------------

   One index of [NAME.dat] per series (insertion-ordered): a title
   comment, data lines, then the double blank line gnuplot uses as an
   index separator; [NAME.gp] plots every index with the paper's axes. *)

let write_plot ~dir ~name ~title ~xlabel ~logx ~ylabel ~series ~x ~y points =
  let keys =
    List.fold_left
      (fun keys p -> if List.mem (series p) keys then keys else keys @ [ series p ])
      [] points
  in
  let write ext lines =
    Out_channel.with_open_text
      (Filename.concat dir (name ^ ext))
      (fun oc -> List.iter (output_string oc) lines)
  in
  write ".dat"
    (List.concat_map
       (fun key ->
         (Printf.sprintf "# series %s\n" key
         :: List.filter_map
              (fun p ->
                if series p = key then Some (Printf.sprintf "%g %g\n" (x p) (y p))
                else None)
              points)
         @ [ "\n\n" ])
       keys);
  write ".gp"
    [
      String.concat "\n"
        ([
           "set terminal png size 800,560";
           Printf.sprintf "set output '%s.png'" name;
           Printf.sprintf "set title '%s'" title;
           Printf.sprintf "set xlabel '%s'" xlabel;
           Printf.sprintf "set ylabel '%s'" ylabel;
         ]
        @ (if logx then [ "set logscale x" ] else [])
        @ [
            "set logscale y";
            "set key left top";
            "plot "
            ^ String.concat ", \\\n     "
                (List.mapi
                   (fun i key ->
                     Printf.sprintf "'%s.dat' index %d with linespoints title '%s'" name i
                       key)
                   keys);
            "";
          ]);
    ]

(* -- Pinned metrics ----------------------------------------------------------

   Names double as series-point keys: the bracketed coordinates use the
   same formatting as the printed tables (Report.pct, Report.days,
   Report.months), so a drifted metric is findable in the reproduce
   output by eye. *)

let higher = B.Higher_is_worse

(* Headline aggregates over the figure's own grid: the extreme in the
   metric's bad direction plus the mean, so both a localized spike and a
   broad shift of the whole curve drift a compact, readable metric. *)
let headline ~(pin : pin) name direction values =
  match List.filter Float.is_finite values with
  | [] -> []
  | finite ->
    let worst =
      match direction with
      | B.Higher_is_worse -> List.fold_left Float.max neg_infinity finite
      | B.Lower_is_worse | B.Neutral -> List.fold_left Float.min infinity finite
    in
    let mean = List.fold_left ( +. ) 0. finite /. float_of_int (List.length finite) in
    [
      pin ~direction (Printf.sprintf "%s.worst" name) worst;
      pin ~direction:B.Neutral (Printf.sprintf "%s.mean" name) mean;
    ]

(* -- The entries ------------------------------------------------------------- *)

let fig2 =
  let name = "fig2" in
  let points s = Lazy.force s.baseline in
  {
    name;
    title = "Figure 2: baseline access-failure probability (no attack)";
    notes =
      [
        "Paper: failure grows with the inter-poll interval and damage rate;";
        "~4.8e-4 (50 AUs) / 5.2e-4 (600 AUs) at 3 months & 5 disk-years.";
      ];
    report = (fun s -> [ Table (Baseline.to_table (points s)) ]);
    plot =
      Some
        (fun ~dir s ->
          write_plot ~dir ~name
            ~title:"Baseline access failure vs inter-poll interval"
            ~xlabel:"inter-poll interval (months)" ~logx:false
            ~ylabel:"access failure probability"
            ~series:(fun (p : Baseline.point) ->
              Printf.sprintf "MTTF %gy, %d AUs" p.Baseline.mttf_years p.Baseline.collection)
            ~x:(fun p -> Duration.to_months p.Baseline.interval)
            ~y:(fun p -> p.Baseline.access_failure)
            (points s));
    pins =
      Some
        (fun pin s ->
          headline ~pin "access_failure" higher
            (List.map (fun (p : Baseline.point) -> p.Baseline.access_failure) (points s))
          @ List.concat_map
              (fun (p : Baseline.point) ->
                let key metric =
                  Printf.sprintf "%s[int=%s,mttf=%gy,aus=%d]" metric
                    (Report.months p.Baseline.interval) p.Baseline.mttf_years
                    p.Baseline.collection
                in
                [
                  pin ~direction:higher (key "af") p.Baseline.access_failure;
                  pin ~direction:B.Neutral (key "af_min") p.Baseline.afp_min;
                  pin ~direction:B.Neutral (key "af_max") p.Baseline.afp_max;
                ])
              (points s));
  }

(* The figures that read one duration-grid sweep: each renders its
   metric's table and pins its series, and any of them writes the plots
   of all of them. *)
let grid_figures ~attack ~points figures =
  let plot ~dir s =
    List.iter
      (fun (name, _, _, (m : Stoppage.metric)) ->
        write_plot ~dir ~name
          ~title:(Printf.sprintf "%s under %s" m.Stoppage.label attack)
          ~xlabel:"attack duration (days)" ~logx:true ~ylabel:m.Stoppage.ylabel
          ~series:(fun (p : Stoppage.point) -> Report.pct p.Stoppage.coverage)
          ~x:(fun p -> Duration.to_days p.Stoppage.duration)
          ~y:m.Stoppage.value (points s))
      figures
  in
  List.map
    (fun (name, number, notes, (m : Stoppage.metric)) ->
      {
        name;
        title = Printf.sprintf "Figure %d: %s under %s" number m.Stoppage.label attack;
        notes;
        report = (fun s -> [ Table (Stoppage.table m (points s)) ]);
        plot = Some plot;
        pins =
          Some
            (fun pin s ->
              let points = points s in
              headline ~pin m.Stoppage.key higher (List.map m.Stoppage.value points)
              @ List.map
                  (fun (p : Stoppage.point) ->
                    pin ~direction:higher
                      (Printf.sprintf "%s[cov=%s,days=%s]" m.Stoppage.key
                         (Report.pct p.Stoppage.coverage)
                         (Report.days p.Stoppage.duration))
                      (m.Stoppage.value p))
                  points);
      })
    figures

let stoppage_figures =
  grid_figures ~attack:"pipe stoppage"
    ~points:(fun s -> Lazy.force s.stoppage)
    [
      ( "fig3",
        3,
        [
          "Paper: grows with coverage and duration; even 100% coverage for";
          "180 d stays ~2.9e-3 — within one order of magnitude of baseline.";
        ],
        Stoppage.access_failure );
      ( "fig4",
        4,
        [ "Paper: attacks must last >= ~60 d to raise the delay ratio by 10x." ],
        Stoppage.delay_ratio );
      ( "fig5",
        5,
        [ "Paper: ~1 for short attacks, up to ~10 for long ones." ],
        Stoppage.friction );
    ]

let admission_figures =
  grid_figures ~attack:"admission flood"
    ~points:(fun s -> Lazy.force s.admission)
    [
      ( "fig6",
        6,
        [
          "Paper: barely moves; 5.9e-4 at full coverage sustained 2 years";
          "(baseline 5.2e-4).";
        ],
        Stoppage.access_failure );
      ( "fig7",
        7,
        [ "Paper: stays ~1 at every coverage and duration." ],
        Stoppage.delay_ratio );
      ( "fig8",
        8,
        [ "Paper: rises with duration, up to ~1.33 at full coverage / 2 y." ],
        Stoppage.friction );
    ]

let table1 =
  let rows s = Lazy.force s.effort in
  {
    name = "table1";
    title = "Table 1: brute-force effortful adversary, defection strategies";
    notes =
      [
        "Paper (50-AU / 600-AU rows):";
        "  INTRO      friction 1.40/1.31  cost 1.93/2.04  delay 1.11/1.10  af 4.99e-4/6.35e-4";
        "  REMAINING  friction 2.61/2.50  cost 1.55/1.60  delay 1.11/1.10  af 5.90e-4/6.16e-4";
        "  NONE       friction 2.60/2.49  cost 1.02/1.06  delay 1.11/1.10  af 5.58e-4/6.19e-4";
        "Shape: NONE (full participation) is the attacker's cheapest strategy;";
        "vote-extracting strategies inflict the most friction; preservation holds.";
      ];
    report = (fun s -> [ Table (Effort_attack.to_table (rows s)) ]);
    plot = None;
    pins =
      Some
        (fun pin s ->
          let rows = rows s in
          let columns =
            [
              ("friction", higher, fun r -> r.Effort_attack.friction);
              ("cost_ratio", B.Lower_is_worse, fun r -> r.Effort_attack.cost_ratio);
              ("delay_ratio", higher, fun r -> r.Effort_attack.delay_ratio);
              ("access_failure", higher, fun r -> r.Effort_attack.access_failure);
            ]
          in
          List.concat_map
            (fun (key, direction, value) ->
              headline ~pin key direction (List.map value rows))
            columns
          @ List.concat_map
              (fun (r : Effort_attack.row) ->
                List.map
                  (fun (key, direction, value) ->
                    pin ~direction
                      (Printf.sprintf "%s[strategy=%s,aus=%d]" key
                         (Format.asprintf "%a" Adversary.Brute_force.pp_strategy
                            r.Effort_attack.strategy)
                         r.Effort_attack.collection)
                      (value r))
                  columns)
              rows);
  }

(* The experiments beyond the figures run their own sweeps at the
   shared scale; they have no plot and no pin. *)
let experiment name ~title ~notes report =
  { name; title; notes; report = (fun s -> report s.scale); plot = None; pins = None }

let ablate =
  experiment "ablate" ~title:"Ablations: what each attrition defense buys, one per row"
    ~notes:[] (fun scale -> [ Table (Ablation.to_table (Ablation.run ~scale ())) ])

let subversion =
  experiment "subversion"
    ~title:
      "Retained defenses: the stealth content-corruption adversary of the prior \
       protocol paper"
    ~notes:
      [
        "The redesign must keep the prior paper's resistance to silent content";
        "corruption: partial infiltration should raise alarms, not flip polls.";
      ]
    (fun scale ->
      [ Table (Subversion_attack.to_table (Subversion_attack.sweep ~scale ())) ])

let reciprocity =
  experiment "reciprocity"
    ~title:"Deferred to the extended version: the grade-recovery adversary (Sec. 7.4)"
    ~notes:
      [
        "The paper claims (without showing) that gaming even/credit grades is";
        "rate-limited below brute force; we run the omitted experiment.";
      ]
    (fun scale ->
      let rows = Reciprocity_attack.sweep ~scale () in
      let reference = Reciprocity_attack.brute_force_reference ~scale () in
      [
        Table (Reciprocity_attack.to_table rows);
        Line
          (Printf.sprintf "brute-force REMAINING friction at this scale (reference): %s"
             (Report.ratio reference));
      ])

let extensions =
  experiment "extensions"
    ~title:
      "Section 9 extensions: adaptive acceptance, churn, combined adversaries, \
       collection diversity"
    ~notes:
      [
        "(a) adaptive acceptance vs the vote-extracting REMAINING adversary";
        "    (constrained capacity; expect friction down, attacker cost up);";
        "(b) churn: newcomers joining mid-run must bootstrap reputation;";
        "(c) combined adversary strategies (stoppage + brute force at once);";
        "(d) collection diversity (peers hold subsets of the AU space).";
      ]
    (fun scale ->
      let adaptive = Extensions.adaptive_acceptance ~scale () in
      let c = Extensions.churn ~scale () in
      let combined = Extensions.combined ~scale () in
      let diversity = Extensions.diversity ~scale () in
      [
        Table (Extensions.adaptive_table adaptive);
        Line
          (Printf.sprintf
             "churn: %d joiners; incumbents %.2f vs newcomers %.2f successful \
              polls/peer-AU-year"
             c.Extensions.joiners c.Extensions.incumbent_success_rate
             c.Extensions.newcomer_success_rate);
        Table (Extensions.combined_table combined);
        Table (Extensions.diversity_table diversity);
      ])

let all =
  (fig2 :: stoppage_figures)
  @ admission_figures
  @ [ table1; ablate; subversion; reciprocity; extensions ]

let pinned = List.filter (fun e -> Option.is_some e.pins) all
let unpinned = List.filter (fun e -> Option.is_none e.pins) all

let find entries name =
  match List.find_opt (fun e -> e.name = name) entries with
  | Some entry -> Ok entry
  | None ->
    Error
      (Printf.sprintf "unknown target %S (known: %s)" name
         (String.concat " " (List.map (fun e -> e.name) entries)))

let capture ?tolerance_pct sweeps name =
  match find pinned name with
  | Error msg -> Error msg
  | Ok entry ->
    let pin ~direction name value = B.metric ~direction ?tolerance_pct name value in
    let metrics = match entry.pins with Some pins -> pins pin sweeps | None -> [] in
    Ok (B.make ~experiment:name ~config:(config_fingerprint sweeps.scale) metrics)
