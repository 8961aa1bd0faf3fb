(* Wall-clock check of Experiments.Runner: with two or more cores, a
   2-domain map of independent runs beats the serial loop. It times real
   work, so [dune runtest] starts it only after every other test
   executable has finished (see test/dune). *)

open Experiments

(* test_runner's micro scale. *)
let micro =
  {
    Scenario.peers = 12;
    aus = 1;
    quorum = 3;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 6;
    years = 0.5;
    runs = 2;
    seed = 11;
  }

(* Run [f] with a forced worker count, restoring the auto heuristic
   afterwards even on failure. *)
let with_jobs n f =
  Runner.set_jobs n;
  Fun.protect ~finally:(fun () -> Runner.set_jobs 0) f

let test_parallel_faster_on_multicore () =
  if Domain.recommended_domain_count () < 2 then
    (* One visible core (CI containers): the speedup claim is vacuous
       here; test_runner covers determinism either way. *)
    ()
  else begin
    (* Eight runs give each of the two workers several tasks, so one
       scheduling hiccup on a shared host cannot erase the speedup; the
       best of three timings per side, taken in alternating order,
       filters the rest of the noise. *)
    let work () =
      ignore
        (Runner.map
           (fun seed ->
             let cfg = Scenario.config micro in
             Scenario.run_one ~cfg ~seed ~years:4. Scenario.No_attack)
           (List.init 8 (fun i -> micro.Scenario.seed + i)))
    in
    let wall jobs =
      let t0 = Unix.gettimeofday () in
      with_jobs jobs work;
      Unix.gettimeofday () -. t0
    in
    let serial = ref infinity and parallel = ref infinity in
    for round = 1 to 3 do
      let order = if round mod 2 = 1 then [ 1; 2 ] else [ 2; 1 ] in
      List.iter
        (fun jobs ->
          let t = wall jobs in
          if jobs = 1 then serial := Float.min !serial t
          else parallel := Float.min !parallel t)
        order
    done;
    Alcotest.(check bool)
      (Printf.sprintf "parallel (%.2fs) < serial (%.2fs)" !parallel !serial)
      true (!parallel < !serial)
  end

let () =
  Alcotest.run "runner-wall-clock"
    [
      ( "wall-clock",
        [
          Alcotest.test_case "parallel faster on multicore" `Slow
            test_parallel_faster_on_multicore;
        ] );
    ]
