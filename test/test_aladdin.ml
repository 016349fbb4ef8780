(* Tests for the trace-based baseline: trace generation/parsing and the
   datapath reverse-engineering behaviours the paper critiques
   (Tables I and II). *)

open Salam_ir
open Salam_hw
module W = Salam_workloads.Workload

let check = Alcotest.check

let trace_file name = Filename.concat (Filename.get_temp_dir_name ()) ("salam_test_" ^ name ^ ".trace")

let gen_trace w =
  let mem = Memory.create ~size:(1 lsl 22) in
  let bases = W.alloc_buffers w mem in
  w.W.init (Salam_sim.Rng.create 42L) mem bases;
  let file = trace_file w.W.name in
  let events =
    Salam_aladdin.Trace.generate mem (W.modul w)
      ~entry:w.W.kernel.Salam_frontend.Lang.kname ~args:(W.args w ~bases) ~file
  in
  (file, events)

let test_trace_roundtrip () =
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let file, events = gen_trace w in
  let parsed = Salam_aladdin.Trace.load ~file in
  check Alcotest.int "all events parsed" events (Array.length parsed);
  check Alcotest.bool "loads present" true
    (Array.exists (fun e -> e.Salam_aladdin.Trace.is_load) parsed);
  Sys.remove file

let test_trace_excludes_control () =
  let w = Salam_workloads.Nw.workload ~len:8 () in
  let interp_count = Test_engine.dynamic_instructions w in
  let _, events = gen_trace w in
  check Alcotest.bool "control flow filtered from the trace" true (events < interp_count)

let test_schedule_deterministic () =
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let file, _ = gen_trace w in
  let events = Salam_aladdin.Trace.load ~file in
  let r1 = Salam_aladdin.Scheduler.schedule events (Salam_aladdin.Scheduler.Fixed_latency 1) in
  let r2 = Salam_aladdin.Scheduler.schedule events (Salam_aladdin.Scheduler.Fixed_latency 1) in
  check Alcotest.int "same cycles" r1.Salam_aladdin.Scheduler.cycles r2.Salam_aladdin.Scheduler.cycles;
  check Alcotest.bool "cycles positive" true (r1.Salam_aladdin.Scheduler.cycles > 0);
  Sys.remove file

(* Table I behaviour: a data-dependent branch changes the trace and so
   the reverse-engineered datapath, even though the kernel is fixed *)
let test_datapath_depends_on_input_data () =
  let run dataset =
    let w = Salam_workloads.Spmv.workload ~n:32 ~nnz_per_row:4 ~dataset () in
    let file, _ = gen_trace w in
    let events = Salam_aladdin.Trace.load ~file in
    let r = Salam_aladdin.Scheduler.schedule events (Salam_aladdin.Scheduler.Fixed_latency 1) in
    Sys.remove file;
    r
  in
  let d1 = run 1 and d2 = run 2 in
  check Alcotest.int "dataset 1 has no shifters" 0
    (Salam_aladdin.Scheduler.fu_count d1 Fu.Shifter);
  check Alcotest.bool "dataset 2 exposes a shifter" true
    (Salam_aladdin.Scheduler.fu_count d2 Fu.Shifter > 0)

(* Table II behaviour: the memory hierarchy changes load overlap and so
   the reverse-engineered FU counts *)
let test_datapath_depends_on_memory_model () =
  let w = Salam_workloads.Gemm.workload ~n:8 ~unroll:8 () in
  let file, _ = gen_trace w in
  let events = Salam_aladdin.Trace.load ~file in
  let counts =
    List.map
      (fun model ->
        let r = Salam_aladdin.Scheduler.schedule events model in
        Salam_aladdin.Scheduler.fu_count r Fu.Fp_mul_dp)
      [
        Salam_aladdin.Scheduler.Cache
          { size = 256; line_bytes = 32; ways = 2; hit_latency = 2; miss_latency = 20 };
        Salam_aladdin.Scheduler.Cache
          { size = 4096; line_bytes = 32; ways = 2; hit_latency = 2; miss_latency = 20 };
        Salam_aladdin.Scheduler.Fixed_latency 1;
      ]
  in
  Sys.remove file;
  check Alcotest.bool "memory model changes the datapath" true
    (List.sort_uniq compare counts |> List.length > 1)

let test_cache_statistics_reported () =
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let file, _ = gen_trace w in
  let events = Salam_aladdin.Trace.load ~file in
  let r =
    Salam_aladdin.Scheduler.schedule events
      (Salam_aladdin.Scheduler.Cache
         { size = 512; line_bytes = 32; ways = 2; hit_latency = 2; miss_latency = 20 })
  in
  Sys.remove file;
  check Alcotest.bool "hits and misses counted" true
    (r.Salam_aladdin.Scheduler.cache_hits > 0 && r.Salam_aladdin.Scheduler.cache_misses > 0);
  check Alcotest.int "loads+stores accounted"
    (r.Salam_aladdin.Scheduler.loads + r.Salam_aladdin.Scheduler.stores)
    (r.Salam_aladdin.Scheduler.cache_hits + r.Salam_aladdin.Scheduler.cache_misses)

let test_slower_memory_never_faster () =
  let w = Salam_workloads.Stencil2d.workload ~rows:12 ~cols:12 () in
  let file, _ = gen_trace w in
  let events = Salam_aladdin.Trace.load ~file in
  let fast =
    Salam_aladdin.Scheduler.schedule events (Salam_aladdin.Scheduler.Fixed_latency 1)
  in
  let slow =
    Salam_aladdin.Scheduler.schedule events (Salam_aladdin.Scheduler.Fixed_latency 10)
  in
  Sys.remove file;
  check Alcotest.bool "latency monotone" true
    (slow.Salam_aladdin.Scheduler.cycles >= fast.Salam_aladdin.Scheduler.cycles)

let suite =
  [
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace excludes control" `Quick test_trace_excludes_control;
    Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
    Alcotest.test_case "Table I: data-dependent datapath" `Quick test_datapath_depends_on_input_data;
    Alcotest.test_case "Table II: memory-dependent datapath" `Quick test_datapath_depends_on_memory_model;
    Alcotest.test_case "cache statistics" `Quick test_cache_statistics_reported;
    Alcotest.test_case "latency monotone" `Quick test_slower_memory_never_faster;
  ]
