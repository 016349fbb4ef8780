(* The machine's current speed, from a fixed unit of host work that no
   change to the simulator can alter.

   On a host that shares its cores, the same loop runs up to 1.7x slower
   for seconds to minutes at a time, and CPU time slows with it (the core
   itself is slower; the process is not descheduled). Between operations
   a run times this unit, and the gated timings are reported at
   [reference_s]: measured time x [reference_s] / (10th percentile of
   the unit's times in the run). A faster simulator leaves the unit
   alone, so the scaled figures compare across builds and across
   minutes; the unscaled ones are printed beside them. *)

(* The unit's usual 10th-percentile time on the 2-vCPU Xeon machine the
   baseline in README.md was measured on (the median over 80 runs):
   scaled figures read as milliseconds on that machine at its usual
   speed. *)
let reference_s = 0.0059

(* Integer mixing with data-dependent loads, stores and branches over a
   512 KiB table, then a burst of short-lived allocation: the two things
   the simulator's hot loops do most. The table is kept small so that it
   barely moves the run's peak resident memory, a gated metric. *)
let table = lazy (Array.init (1 lsl 16) (fun i -> (i * 3) land 0xFFFF))

let work () =
  let t = Lazy.force table in
  let mask = Array.length t - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 400_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = (!x lxor !acc) land mask in
    let v = Array.unsafe_get t i in
    if v land 1 = 0 then acc := !acc + (v lsr 3) else acc := !acc lxor v;
    Array.unsafe_set t ((i * 7) land mask) (v + 1)
  done;
  let l = ref [] in
  for k = 1 to 20_000 do
    l := (k, !acc) :: !l;
    if k land 255 = 0 then l := []
  done;
  !acc + List.length !l

(* Seconds one unit takes now. *)
let sample () =
  ignore (Lazy.force table);
  snd (Stat.time (fun () -> ignore (Sys.opaque_identity (work ()))))
