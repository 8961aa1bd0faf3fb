(* Golden tests for the gnuplot figure writers.

   Each case renders one figN.dat or figN.gp from a small seeded sweep
   and compares its MD5 against a pinned golden: the .dat bytes are
   downstream of every simulation layer, so a drifted golden means a
   change moved the figures the paper reproduction emits.

   Regenerate (only when figure output is MEANT to change) with:

     GOLDEN_REGEN=$PWD/test/goldens/plot.golden \
       dune exec test/test_plot.exe
*)

open Experiments

(* Under [dune runtest] the cwd is _build/default/test (the goldens are
   declared as test deps); under [dune exec] from the workspace root it
   is the root itself. *)
let golden_file =
  lazy
    (List.find Sys.file_exists [ "goldens/plot.golden"; "test/goldens/plot.golden" ])

(* Same micro scale the baseline tests pin: small enough that the three
   sweeps take seconds, large enough that every figure has distinct
   series. *)
let micro =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 1.;
    runs = 1;
    seed = 5;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "plot_golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read path = In_channel.with_open_bin path In_channel.input_all

(* One set of shared sweeps; each plotted entry writes its .dat and .gp. *)
let sweeps = lazy (Registry.sweeps micro)

let cases () =
  List.concat_map
    (fun (entry : Registry.entry) ->
      match entry.Registry.plot with
      | None -> []
      | Some write ->
        with_temp_dir (fun dir ->
            write ~dir (Lazy.force sweeps);
            List.map
              (fun ext ->
                let name = entry.Registry.name ^ ext in
                (name, read (Filename.concat dir name)))
              [ ".dat"; ".gp" ]))
    Registry.all

let digest s = Digest.to_hex (Digest.string s)

(* -- Golden plumbing ----------------------------------------------------- *)

let load_goldens path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line ->
          (match String.index_opt line '=' with
          | None -> go acc
          | Some i ->
            go
              ((String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1))
              :: acc))
      in
      go [])

let regen path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (name, content) ->
          let d = digest content in
          Printf.fprintf oc "%s=%s\n" name d;
          Printf.printf "%s=%s\n%!" name d)
        (cases ()))

let check_case goldens name content () =
  match List.assoc_opt name goldens with
  | None -> Alcotest.fail (Printf.sprintf "no golden pinned for %s" name)
  | Some expected ->
    let actual = digest content in
    if actual <> expected then
      Alcotest.fail
        (Printf.sprintf
           "%s drifted from its golden\n  pinned %s\n  actual %s\n\
            If the figure change is intended, regenerate with\n\
            GOLDEN_REGEN=$PWD/test/goldens/plot.golden dune exec \
            test/test_plot.exe\n--- emitted ---\n%s"
           name expected actual content)

let () =
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some path when path <> "" -> regen path
  | _ ->
    let goldens = load_goldens (Lazy.force golden_file) in
    Alcotest.run "plot"
      [
        ( "goldens",
          List.map
            (fun (name, content) ->
              Alcotest.test_case name `Quick (check_case goldens name content))
            (cases ()) );
      ]
