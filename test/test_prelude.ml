(* Unit and property tests for the prelude substrate: rng, tsheap, stats,
   duration, table. *)

module Rng = Repro_prelude.Rng
module Stats = Repro_prelude.Stats
module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

let check_float = Alcotest.(check (float 1e-9))

(* -- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "seeds diverge" true !differs

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy tracks" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* b is now one draw behind a; their next draws differ in general *)
  let a2 = Rng.bits64 a and b2 = Rng.bits64 b in
  Alcotest.(check bool) "desynchronised after extra draw" false (Int64.equal a2 b2)

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* Consuming the child must not affect the parent's future stream. *)
  let parent_reference = Rng.copy parent in
  for _ = 1 to 50 do
    ignore (Rng.bits64 child)
  done;
  for _ = 1 to 50 do
    Alcotest.(check int64) "parent unaffected" (Rng.bits64 parent_reference)
      (Rng.bits64 parent)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (x >= 0. && x < 3.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 17 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)

let test_rng_bernoulli_frequency () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.3" true (Float.abs (freq -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 23 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 20_000 do
    Stats.Acc.add acc (Rng.exponential rng ~mean:5.)
  done;
  Alcotest.(check bool) "mean near 5" true (Float.abs (Stats.Acc.mean acc -. 5.) < 0.2)

let test_rng_sample_distinct () =
  let rng = Rng.create 29 in
  let xs = List.init 20 (fun i -> i) in
  let sample = Rng.sample rng 10 xs in
  Alcotest.(check int) "size" 10 (List.length sample);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare sample));
  List.iter (fun x -> Alcotest.(check bool) "member" true (List.mem x xs)) sample

let test_rng_sample_overshoot () =
  let rng = Rng.create 31 in
  let sample = Rng.sample rng 10 [ 1; 2; 3 ] in
  Alcotest.(check int) "capped at population" 3 (List.length sample)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 37 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let prop_sample_is_subset =
  QCheck2.Test.make ~name:"rng sample is always a distinct subset" ~count:200
    QCheck2.Gen.(pair small_int (small_list small_int))
    (fun (k, xs) ->
      let rng = Rng.create 41 in
      let s = Rng.sample rng k xs in
      List.length s = min (max k 0) (List.length xs)
      && List.for_all (fun x -> List.mem x xs) s)

(* -- Tsheap ----------------------------------------------------------- *)

module Tsheap = Repro_prelude.Tsheap

let test_tsheap_basic () =
  let h = Tsheap.create ~dummy:"" () in
  Alcotest.(check bool) "empty" true (Tsheap.is_empty h);
  Tsheap.add h ~time:5. ~seq:0 "e";
  Tsheap.add h ~time:1. ~seq:1 "a";
  Tsheap.add h ~time:3. ~seq:2 "c";
  Alcotest.(check int) "length" 3 (Tsheap.length h);
  Alcotest.(check (float 0.)) "min time" 1. (Tsheap.min_time h);
  Alcotest.(check int) "min seq" 1 (Tsheap.min_seq h);
  Alcotest.(check string) "min payload" "a" (Tsheap.min_payload h);
  Alcotest.(check (option string)) "pop a" (Some "a") (Tsheap.pop h);
  Alcotest.(check (option string)) "pop c" (Some "c") (Tsheap.pop h);
  Alcotest.(check (option string)) "pop e" (Some "e") (Tsheap.pop h);
  Alcotest.(check (option string)) "pop empty" None (Tsheap.pop h)

let test_tsheap_ties_fifo () =
  (* Equal times drain in seq order: the engine's FIFO guarantee for
     same-time events rests on exactly this. *)
  let h = Tsheap.create ~dummy:(-1) () in
  List.iter (fun seq -> Tsheap.add h ~time:2. ~seq seq) [ 4; 0; 3; 1; 2 ];
  let order = List.init 5 (fun _ -> Option.get (Tsheap.pop h)) in
  Alcotest.(check (list int)) "FIFO under ties" [ 0; 1; 2; 3; 4 ] order

let test_tsheap_empty_ops_raise () =
  let h = Tsheap.create ~dummy:0 () in
  Alcotest.check_raises "min_time" (Invalid_argument "Tsheap.min_time: empty heap")
    (fun () -> ignore (Tsheap.min_time h));
  Alcotest.check_raises "drop_min" (Invalid_argument "Tsheap.drop_min: empty heap")
    (fun () -> Tsheap.drop_min h)

let test_tsheap_clear () =
  let h = Tsheap.create ~dummy:0 () in
  for i = 1 to 40 do
    Tsheap.add h ~time:(float_of_int (i mod 7)) ~seq:i i
  done;
  Tsheap.clear h;
  Alcotest.(check int) "cleared" 0 (Tsheap.length h);
  Tsheap.add h ~time:1. ~seq:0 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Tsheap.pop h)

(* Model check against the comparator the engine's former generic heap
   ordered events by: identical pop order on (time, seq) keys, including
   heavy time ties. Times are drawn from a small set so collisions are
   the common case, and seqs are the injection index, unique as in the
   engine. *)
let tsheap_keys_gen =
  QCheck2.Gen.(list_size (int_bound 200) (int_bound 7))

let prop_tsheap_matches_model_heap =
  QCheck2.Test.make ~name:"tsheap pop order matches comparator-heap model"
    ~count:300 tsheap_keys_gen (fun raw_times ->
      let keyed = List.mapi (fun seq t -> (float_of_int t, seq)) raw_times in
      let model =
        List.sort
          (fun (t1, s1) (t2, s2) ->
            match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
          keyed
      in
      let h = Tsheap.create ~dummy:(nan, -1) () in
      List.iter (fun (time, seq) -> Tsheap.add h ~time ~seq (time, seq)) keyed;
      List.for_all (fun m -> Tsheap.pop h = Some m) model && Tsheap.is_empty h)

let prop_tsheap_interleaved_ops =
  (* Interleave adds and drops (the engine's actual access pattern, where
     the heap never fully drains between schedules) and check the final
     drain is still totally ordered with unique seqs. *)
  QCheck2.Test.make ~name:"tsheap interleaved add/drop stays ordered" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) (pair (int_bound 5) bool))
    (fun ops ->
      let h = Tsheap.create ~dummy:(-1) () in
      let seq = ref 0 in
      List.iter
        (fun (t, drop) ->
          if drop && not (Tsheap.is_empty h) then Tsheap.drop_min h
          else begin
            Tsheap.add h ~time:(float_of_int t) ~seq:!seq !seq;
            incr seq
          end)
        ops;
      let rec drain prev =
        if Tsheap.is_empty h then true
        else begin
          let key = (Tsheap.min_time h, Tsheap.min_seq h) in
          Tsheap.drop_min h;
          (match prev with None -> true | Some p -> p < key) && drain (Some key)
        end
      in
      drain None)

(* -- Monotonic clock -------------------------------------------------- *)

let test_monotonic_now () =
  let a = Repro_prelude.Monotonic.now_s () in
  let b = Repro_prelude.Monotonic.now_s () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "elapsed non-negative" true
    (Repro_prelude.Monotonic.elapsed_s a >= 0.);
  (* elapsed_s clamps: a reference in the future must not go negative. *)
  Alcotest.(check (float 0.)) "clamped" 0.
    (Repro_prelude.Monotonic.elapsed_s (b +. 3600.))

let test_monotonic_thread_cpu () =
  let a = Repro_prelude.Monotonic.thread_cpu_s () in
  (* Burn a little CPU; the thread clock must not go backwards and
     should advance eventually (we only assert monotonicity to stay
     robust on coarse-grained platforms). *)
  let acc = ref 0 in
  for i = 1 to 1_000_000 do
    acc := !acc + (i mod 7)
  done;
  ignore (Sys.opaque_identity !acc);
  let b = Repro_prelude.Monotonic.thread_cpu_s () in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* -- Stats ------------------------------------------------------------ *)

let test_acc_mean_variance () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.Acc.mean acc);
  check_float "variance" (32. /. 7.) (Stats.Acc.variance acc);
  check_float "min" 2. (Stats.Acc.min acc);
  check_float "max" 9. (Stats.Acc.max acc);
  Alcotest.(check int) "count" 8 (Stats.Acc.count acc);
  check_float "total" 40. (Stats.Acc.total acc)

let test_acc_empty () =
  let acc = Stats.Acc.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Acc.mean acc));
  check_float "variance 0" 0. (Stats.Acc.variance acc)

let test_time_weighted_constant () =
  let tw = Stats.Time_weighted.create ~start:0. ~value:3. in
  check_float "constant signal" 3. (Stats.Time_weighted.mean tw ~now:10.)

let test_time_weighted_step () =
  let tw = Stats.Time_weighted.create ~start:0. ~value:0. in
  Stats.Time_weighted.update tw ~now:5. ~value:1.;
  (* 0 for 5s then 1 for 5s *)
  check_float "step mean" 0.5 (Stats.Time_weighted.mean tw ~now:10.)

let test_time_weighted_multi_step () =
  let tw = Stats.Time_weighted.create ~start:0. ~value:2. in
  Stats.Time_weighted.update tw ~now:2. ~value:0.;
  Stats.Time_weighted.update tw ~now:4. ~value:4.;
  (* 2*2 + 0*2 + 4*6 = 28 over 10 *)
  check_float "piecewise mean" 2.8 (Stats.Time_weighted.mean tw ~now:10.)

let prop_acc_mean_matches_fold =
  QCheck2.Test.make ~name:"acc mean matches reference fold" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let acc = Stats.Acc.create () in
      List.iter (Stats.Acc.add acc) xs;
      let reference = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.Acc.mean acc -. reference) < 1e-6 *. (1. +. Float.abs reference))

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "p0" 1. (Stats.percentile 0. xs);
  check_float "p50" 3. (Stats.percentile 50. xs);
  check_float "p100" 5. (Stats.percentile 100. xs);
  check_float "p25" 2. (Stats.percentile 25. xs)

let test_percentile_interpolates () =
  check_float "p50 of pair" 1.5 (Stats.percentile 50. [ 1.; 2. ])

let test_percentile_total_order () =
  (* Regression: the sort used polymorphic [compare]; with total float
     order, signed zeros and infinities land where they should. *)
  check_float "negatives sort below" (-3.) (Stats.percentile 0. [ 4.; -3.; 0. ]);
  check_float "p100 with infinity" infinity (Stats.percentile 100. [ 1.; infinity; 2. ]);
  check_float "p0 with -infinity" neg_infinity
    (Stats.percentile 0. [ 1.; neg_infinity; 2. ]);
  check_float "signed zeros ordered" 0. (Stats.percentile 50. [ 0.; -0.; 1. ])

let test_percentile_nan_raises () =
  Alcotest.check_raises "NaN input" (Invalid_argument "Stats.percentile: NaN input")
    (fun () -> ignore (Stats.percentile 50. [ 1.; nan; 2. ]))

let test_percentile_singleton () =
  check_float "p0 singleton" 42. (Stats.percentile 0. [ 42. ]);
  check_float "p100 singleton" 42. (Stats.percentile 100. [ 42. ]);
  check_float "p37 singleton" 42. (Stats.percentile 37. [ 42. ])

let test_mean_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

(* -- Duration --------------------------------------------------------- *)

let test_duration_roundtrips () =
  check_float "days" 3. (Duration.to_days (Duration.of_days 3.));
  check_float "months" 2.5 (Duration.to_months (Duration.of_months 2.5));
  check_float "years" 1.5 (Duration.to_years (Duration.of_years 1.5))

let test_duration_constants () =
  check_float "day" 86400. Duration.day;
  check_float "month = 30 days" (30. *. 86400.) Duration.month;
  check_float "year = 365 days" (365. *. 86400.) Duration.year

let test_duration_pp () =
  let s x = Format.asprintf "%a" Duration.pp x in
  Alcotest.(check string) "seconds" "30.0s" (s 30.);
  Alcotest.(check string) "days" "2.0d" (s (Duration.of_days 2.));
  Alcotest.(check string) "months" "3.0mo" (s (Duration.of_months 3.));
  Alcotest.(check string) "years" "2.00y" (s (Duration.of_years 2.))

(* -- Table ------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered |> List.length = 5
       (* header, rule, 2 rows, trailing *));
  Alcotest.(check bool) "pads short rows" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun line -> String.trim line = "333"))

let test_table_too_many_cells () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "1"; "2" ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          quick "deterministic streams" test_rng_deterministic;
          quick "seed sensitivity" test_rng_seed_sensitivity;
          quick "copy independence" test_rng_copy_independent;
          quick "split independence" test_rng_split_independent;
          quick "int bounds" test_rng_int_bounds;
          quick "float bounds" test_rng_float_bounds;
          quick "bernoulli extremes" test_rng_bernoulli_extremes;
          quick "bernoulli frequency" test_rng_bernoulli_frequency;
          quick "exponential mean" test_rng_exponential_mean;
          quick "sample distinct" test_rng_sample_distinct;
          quick "sample overshoot" test_rng_sample_overshoot;
          quick "shuffle permutation" test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_sample_is_subset;
        ] );
      ( "tsheap",
        [
          quick "basic order" test_tsheap_basic;
          quick "FIFO under time ties" test_tsheap_ties_fifo;
          quick "empty ops raise" test_tsheap_empty_ops_raise;
          quick "clear" test_tsheap_clear;
          QCheck_alcotest.to_alcotest prop_tsheap_matches_model_heap;
          QCheck_alcotest.to_alcotest prop_tsheap_interleaved_ops;
        ] );
      ( "monotonic",
        [
          quick "wall clock" test_monotonic_now;
          quick "thread cpu clock" test_monotonic_thread_cpu;
        ] );
      ( "stats",
        [
          quick "acc mean/variance" test_acc_mean_variance;
          quick "acc empty" test_acc_empty;
          quick "time-weighted constant" test_time_weighted_constant;
          quick "time-weighted step" test_time_weighted_step;
          quick "time-weighted multi-step" test_time_weighted_multi_step;
          quick "percentile" test_percentile;
          quick "percentile interpolation" test_percentile_interpolates;
          quick "percentile total order" test_percentile_total_order;
          quick "percentile NaN raises" test_percentile_nan_raises;
          quick "percentile singleton" test_percentile_singleton;
          quick "mean empty raises" test_mean_empty_raises;
          QCheck_alcotest.to_alcotest prop_acc_mean_matches_fold;
        ] );
      ( "duration",
        [
          quick "roundtrips" test_duration_roundtrips;
          quick "constants" test_duration_constants;
          quick "pretty printing" test_duration_pp;
        ] );
      ( "table",
        [ quick "renders" test_table_renders; quick "cell overflow" test_table_too_many_cells ]
      );
    ]
