(* Observability tour: one small deployment under an admission flood,
   watched three ways at once --

     1. a warn-level pretty sink narrating troubled polls to stdout,
     2. a tally fed from the trace (event counts by kind, plus the
        distribution of votes gathered per evaluation),
     3. a Sampler emitting a weekly CSV time series of the metrics,

   which is the same machinery `lockss_sim run --trace-out/--metrics-out`
   and every Experiments.Scenario run uses. *)

module Duration = Repro_prelude.Duration
module Stats = Repro_prelude.Stats
module Population = Lockss.Population
module Trace = Lockss.Trace

let () =
  let cfg =
    {
      Lockss.Config.default with
      Lockss.Config.loyal_peers = 20;
      aus = 2;
      quorum = 4;
      max_disagree = 1;
      outer_circle_size = 4;
      reference_list_target = 10;
    }
  in
  let population = Population.create ~seed:11 ~extra_nodes:5 cfg in
  ignore
    (Adversary.Admission_flood.attach population
       ~minions:(Population.extra_nodes population)
       ~coverage:1.0
       ~attack_duration:(Duration.of_days 60.)
       ~recuperation:(Duration.of_days 30.)
       ~invitations_per_victim_au_per_day:24.);
  let trace = Population.trace population in

  (* 1. Pretty sink: only warn-severity events (inquorate/alarmed polls). *)
  print_endline "-- troubled polls (warn-level pretty sink) --";
  Trace.subscribe trace (Trace.pretty_sink ~min_severity:Trace.Warn Format.std_formatter);

  (* 2. Event counts by kind and votes per evaluation, fed from the trace. *)
  let kinds = Hashtbl.create 32 in
  let votes_per_eval = ref [] in
  Trace.subscribe trace (fun ~time:_ event ->
      let kind = Trace.kind event in
      Hashtbl.replace kinds kind (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind));
      match event with
      | Trace.Evaluation_started { votes; _ } ->
        votes_per_eval := float_of_int votes :: !votes_per_eval
      | _ -> ());

  (* 3. Four-weekly metric samples as CSV on stdout. *)
  print_endline "\n-- four-weekly metric samples (CSV) --";
  let series =
    Obs.Series.create ~format:Obs.Series.Csv ~columns:Lockss.Sampler.columns
      (Obs.Sink.of_channel stdout)
  in
  let ctx = Population.ctx population in
  let sampler =
    Lockss.Sampler.attach
      ~engine:(Population.engine population)
      ~metrics:ctx.Lockss.Peer.metrics
      ~interval:(Duration.of_days 28.)
      (Lockss.Sampler.series_writer ~seed:11 series)
  in

  Population.run population ~until:(Duration.of_years 0.5);
  Lockss.Sampler.stop sampler;
  Obs.Series.close series;

  print_endline "\n-- events by kind --";
  List.iter
    (fun (kind, n) -> Printf.printf "%-28s %d\n" kind n)
    (List.sort compare (List.of_seq (Hashtbl.to_seq kinds)));
  (match !votes_per_eval with
  | [] -> print_endline "no evaluations"
  | votes ->
    Printf.printf "votes per evaluation: %d evaluations, mean %.2f, p50 %.0f, p90 %.0f\n"
      (List.length votes) (Stats.mean votes) (Stats.percentile 50. votes)
      (Stats.percentile 90. votes));

  print_endline "\n-- end-of-run summary --";
  Format.printf "%a@." Lockss.Metrics.pp_summary (Population.summary population)
