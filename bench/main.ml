(* Paper reproduction at the bench scale.

   Regenerates every table and figure of the paper's evaluation section
   at Experiments.Scenario.bench and prints, for each registry entry, its
   title, the paper's reference values, the rendered report and the wall
   time it took. Simulator cost is measured by perfbench/ (see
   BENCHMARK.json), not here.

   Usage:
     dune exec bench/main.exe                 # every registry entry
     dune exec bench/main.exe -- fig3 table1  # selected entries
     dune exec bench/main.exe -- --list       # entry names

   Absolute numbers are not expected to match the paper (our substrate
   is a simulator at reduced scale, not the authors' testbed); each
   section states the shape that must hold and the paper's values for
   orientation. *)

open Experiments

(* One shared set of sweeps at the bench scale: the figures that read the
   same sweep run it once, and the first of them carries its time. *)
let sweeps = Registry.sweeps Scenario.bench

let run_entry (entry : Registry.entry) =
  let title = entry.Registry.title in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  List.iter print_endline entry.Registry.notes;
  let t0 = Unix.gettimeofday () in
  Registry.print (entry.Registry.report sweeps);
  Printf.printf "[%.1fs]\n" (Unix.gettimeofday () -. t0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] ->
    List.iter (fun (e : Registry.entry) -> print_endline e.Registry.name) Registry.all
  | [] ->
    Printf.printf
      "LOCKSS attrition-defense reproduction: regenerating every table and figure.\n";
    List.iter run_entry Registry.all
  | names ->
    let find name =
      match Registry.find Registry.all name with
      | Ok entry -> entry
      | Error msg ->
        prerr_endline msg;
        exit 1
    in
    List.iter run_entry (List.map find names)
