module Duration = Repro_prelude.Duration

let default_durations =
  List.map Duration.of_days [ 10.; 45.; 90.; 180.; 365.; 730. ]

let default_coverages = [ 0.1; 0.5; 1.0 ]
let recuperation = Duration.of_days 30.

(* Garbage is free to the adversary, so it sends enough per victim-AU-day
   that, even through the 0.9 random-drop filter, one invitation is
   admitted almost every day (1 - 0.9^24 = 0.92) and the refractory
   period stays continuously triggered. *)
let default_rate = 24.

let sweep ?(scale = Scenario.bench) ?(durations = default_durations)
    ?(coverages = default_coverages) ?(rate = default_rate) () =
  Stoppage.grid ~scale ~durations ~coverages ~attack:(fun ~coverage ~duration ->
      Scenario.Admission_flood { coverage; duration; recuperation; rate })
