(* Host calibration: a fixed kernel, owned by the benchmark so that no
   change to the simulator can move it, timed beside every repetition.

   Its three parts mirror what a simulation run spends its time on: a
   binary-heap push/pop (the event queue), short-lived allocation (the
   minor heap) and a major collection over a large live graph. Of the
   kernels tried on a shared 2-core VM, this mix tracked the simulator's
   own slowdowns most closely: scaling by it cut the spread of 25-second
   medians of one seed's [run_s] from 0.28 to under 0.1 of the median.

   On a shared host the machine's speed swings by half for minutes at a
   time, far longer than one run, and the kernel swings with it. [run.py]
   times the kernel in its own process before and after every
   repetition (so the kernel's heap never shows in a repetition's
   [peak_heap_mb]), reports it as [host.calib_s], and expresses every
   end-to-end time in reference seconds: the time the repetition would
   have taken on a host that runs the kernel in a fixed reference
   time. *)

module Monotonic = Repro_prelude.Monotonic

let heap_part () =
  let n = 60_000 in
  let keys = Array.make n 0. in
  let size = ref 0 in
  let push x =
    let i = ref !size in
    incr size;
    while !i > 0 && keys.((!i - 1) / 2) > x do
      keys.(!i) <- keys.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    keys.(!i) <- x
  in
  let pop () =
    decr size;
    let x = keys.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(c) < x then begin
          keys.(!i) <- keys.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- x
  in
  let s = ref 12345 in
  for _ = 1 to n do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    push (float_of_int !s)
  done;
  while !size > 0 do
    pop ()
  done

let alloc_part () =
  let rec build acc i = if i = 0 then acc else build ((i, float_of_int i) :: acc) (i - 1) in
  let total = ref 0. in
  for _ = 1 to 3 do
    total := List.fold_left (fun acc (_, x) -> acc +. x) !total (build [] 50_000)
  done;
  ignore (Sys.opaque_identity !total)

(* A major collection over a live list of 1M pairs (~48 MB, beyond the
   caches): marking a large pointer graph, as the simulator's major GC
   does on every full-size workload. *)
let gc_part () =
  let live = List.init 1_000_000 (fun i -> (i, i)) in
  Gc.full_major ();
  ignore (Sys.opaque_identity live)

(* [once ()] runs the kernel once; thread-CPU seconds. *)
let once () =
  let t0 = Monotonic.thread_cpu_s () in
  heap_part ();
  alloc_part ();
  gc_part ();
  Monotonic.thread_cpu_s () -. t0

(* [measure ~domains] runs the kernel on [domains] domains at once, as
   many as the workload keeps busy, and is their mean thread-CPU time:
   a multi-domain workload also pays for the domains' contention. *)
let measure ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn once) in
  let mine = once () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0. all /. float_of_int domains
