(* Validation experiments: Figs 10-12 (timing, power, area against the
   independent reference models), Table III (end-to-end system vs the
   FPGA board model) and Table IV (simulator speed vs the trace-based
   baseline). *)

open Bench_util
module W = Salam_workloads.Workload
module Engine = Salam_engine.Engine
module Datapath = Salam_cdfg.Datapath

let suite () = Salam_workloads.Suite.standard ()

(* Fig 10: engine cycles vs the static HLS schedule estimate. *)
let fig10 () =
  section "FIG 10 — Performance validation (cycles: gem5-SALAM vs HLS reference)";
  Printf.printf "%-24s %12s %12s %9s\n" "benchmark" "gem5-SALAM" "HLS" "error";
  let errs =
    List.map
      (fun w ->
        let r = Salam.simulate w in
        let hls =
          Salam_reference.Hls_model.estimate_cycles (W.compile w) ~counts:(block_counts_of w)
        in
        let e = err_pct ~got:(Int64.to_float r.Salam.cycles) ~reference:(float_of_int hls) in
        Printf.printf "%-24s %12Ld %12d %+8.2f%%\n" (short_name w) r.Salam.cycles hls e;
        abs_float e)
      (suite ())
  in
  Printf.printf "average |error| = %.2f%%  (paper: ~1%% against Vivado HLS)\n%!" (mean errs)

(* Fig 11: average datapath power vs the ASIC (Design Compiler) model. *)
let fig11 () =
  section "FIG 11 — Power validation (datapath mW: gem5-SALAM vs ASIC reference)";
  Printf.printf "%-24s %12s %12s %9s\n" "benchmark" "gem5-SALAM" "ASIC" "error";
  let errs =
    List.map
      (fun w ->
        let r = Salam.simulate w in
        let salam_mw = Salam.datapath_mw r.Salam.power in
        let dp = Datapath.build (W.compile w) in
        let asic_mw =
          Salam_reference.Asic_model.power_mw dp ~stats:r.Salam.stats ~seconds:r.Salam.seconds
        in
        let e = err_pct ~got:salam_mw ~reference:asic_mw in
        Printf.printf "%-24s %12.3f %12.3f %+8.2f%%\n" (short_name w) salam_mw asic_mw e;
        abs_float e)
      (suite ())
  in
  Printf.printf "average |error| = %.2f%%  (paper: 3.25%% against Design Compiler)\n%!"
    (mean errs)

(* Fig 12: datapath area vs the ASIC model. *)
let fig12 () =
  section "FIG 12 — Area validation (datapath um^2: gem5-SALAM vs ASIC reference)";
  Printf.printf "%-24s %12s %12s %9s\n" "benchmark" "gem5-SALAM" "ASIC" "error";
  let errs =
    List.map
      (fun w ->
        let dp = Datapath.build (W.compile w) in
        let salam_area = Datapath.static_area_um2 dp in
        let asic_area = Salam_reference.Asic_model.area_um2 dp in
        let e = err_pct ~got:salam_area ~reference:asic_area in
        Printf.printf "%-24s %12.0f %12.0f %+8.2f%%\n" (short_name w) salam_area asic_area e;
        abs_float e)
      (suite ())
  in
  Printf.printf "average |error| = %.2f%%  (paper: 2.24%% against Design Compiler)\n%!"
    (mean errs)

(* Table III: end-to-end system validation. The simulated flow is
   DMA-in -> accelerator at the FPGA fabric clock -> DMA-out; the board
   side is the analytic ZCU102 model fed with the HLS cycle count. *)
let table3_benchmarks () =
  [
    Salam_workloads.Fft.workload ~size:256 ();
    Salam_workloads.Gemm.workload ~n:16 ~unroll:2 ();
    Salam_workloads.Stencil2d.workload ~rows:32 ~cols:32 ();
    Salam_workloads.Stencil3d.workload ~dim:12 ();
    Salam_workloads.Md_knn.workload ~atoms:64 ~neighbours:16 ();
  ]

let run_system (w : W.t) =
  let open Salam_soc in
  let fabric_mhz = 200.0 in
  let func = W.compile w in
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"c" ~clock_mhz:fabric_mhz () in
  let acc = Accelerator.create sys ~name:w.W.name ~clock_mhz:fabric_mhz func in
  Cluster.add_accelerator cluster acc;
  let total = W.total_buffer_bytes w + (64 * List.length w.W.buffers) in
  let spm_size =
    let rec go p = if p >= total then p else go (2 * p) in
    go 1024
  in
  let spm_base, _ =
    Cluster.add_private_spm cluster acc ~size:spm_size
      ~config:(fun c -> { c with Salam_mem.Spm.read_ports = 2; write_ports = 1; banks = 4 })
      ()
  in
  let dma = Cluster.add_dma cluster () in
  (* lay the buffers out in the SPM and stage the datasets in DRAM *)
  let bases =
    let next = ref spm_base in
    Array.of_list
      (List.map
         (fun (_, bytes) ->
           let b = !next in
           next := Int64.add !next (Int64.of_int ((bytes + 63) / 64 * 64));
           b)
         w.W.buffers)
  in
  let dram = Array.of_list (List.map (fun (_, b) -> System.alloc_region sys ~bytes:b) w.W.buffers) in
  let sizes = Array.of_list (List.map snd w.W.buffers) in
  (* initialise data in DRAM, then DMA it in *)
  w.W.init (Salam_sim.Rng.create 42L) (System.backing sys) dram;
  let t_start = ref 0.0 and t_compute0 = ref 0.0 and t_compute1 = ref 0.0 and t_end = ref 0.0 in
  let host = Host.create sys ~clock_mhz:1200.0 ~port:(Fabric.port fabric) in
  (* each transfer pays descriptor programming and a completion ISR on
     the host, as a bare-metal driver does *)
  let rec dma_chain idx dir k =
    if idx >= Array.length bases then k ()
    else
      let src, dst = if dir = `In then (dram.(idx), bases.(idx)) else (bases.(idx), dram.(idx)) in
      Host.delay_cycles host 24 ~k:(fun () ->
          Salam_mem.Dma.Block.start dma ~src ~dst ~len:sizes.(idx) ~on_done:(fun () ->
              Host.delay_cycles host 80 ~k:(fun () -> dma_chain (idx + 1) dir k)))
  in
  t_start := 0.0;
  dma_chain 0 `In (fun () ->
      t_compute0 := System.elapsed_seconds sys;
      Accelerator.launch acc ~args:(W.args w ~bases) ~on_done:(fun _ ->
          t_compute1 := System.elapsed_seconds sys;
          dma_chain 0 `Out (fun () -> t_end := System.elapsed_seconds sys)));
  ignore (System.run sys);
  let correct = w.W.check (System.backing sys) dram in
  let compute_us = (!t_compute1 -. !t_compute0) *. 1e6 in
  let bulk_us = ((!t_compute0 -. !t_start) +. (!t_end -. !t_compute1)) *. 1e6 in
  (compute_us, bulk_us, correct)

let table3 () =
  section "TABLE III — System validation (simulation vs FPGA board model)";
  Printf.printf "%-22s | %9s %9s %9s | %9s %9s %9s | %7s %7s %7s\n" ""
    "FPGAcomp" "FPGAbulk" "FPGAtot" "SIMcomp" "SIMbulk" "SIMtot" "e.comp" "e.bulk" "e.tot";
  let board = Salam_reference.Fpga_model.zcu102 in
  let errs =
    List.map
      (fun w ->
        let sim_comp, sim_bulk, correct = run_system w in
        if not correct then Printf.printf "!! %s produced wrong output\n" (short_name w);
        let hls =
          Salam_reference.Hls_model.estimate_cycles (W.compile w) ~counts:(block_counts_of w)
        in
        let fpga_comp = Salam_reference.Fpga_model.compute_time_us board ~hls_cycles:hls in
        let bytes = W.total_buffer_bytes w in
        let fpga_bulk =
          Salam_reference.Fpga_model.bulk_transfer_us board ~bytes:(2 * bytes)
            ~transfers:(2 * List.length w.W.buffers)
        in
        let e_comp = err_pct ~got:sim_comp ~reference:fpga_comp in
        let e_bulk = err_pct ~got:sim_bulk ~reference:fpga_bulk in
        let e_tot =
          err_pct ~got:(sim_comp +. sim_bulk) ~reference:(fpga_comp +. fpga_bulk)
        in
        Printf.printf "%-22s | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f | %+6.1f%% %+6.1f%% %+6.1f%%\n"
          (short_name w) fpga_comp fpga_bulk (fpga_comp +. fpga_bulk) sim_comp sim_bulk
          (sim_comp +. sim_bulk) e_comp e_bulk e_tot;
        (abs_float e_comp, abs_float e_bulk, abs_float e_tot))
      (table3_benchmarks ())
  in
  let c, b, t =
    List.fold_left (fun (c, b, t) (x, y, z) -> (x :: c, y :: b, z :: t)) ([], [], []) errs
  in
  Printf.printf "average |error|: compute %.2f%%, bulk %.2f%%, total %.2f%%  (paper: 1.94 / 2.35 / 1.62)\n%!"
    (mean c) (mean b) (mean t)

(* Table IV: wall-clock cost of the two flows. Preprocessing is trace
   generation (Aladdin) vs kernel compilation (SALAM); simulation is
   trace load + schedule vs the event-driven engine run. *)
let table4 () =
  section "TABLE IV — Simulator setup and runtime execution timing";
  Printf.printf "%-22s | %10s %10s | %10s %10s | %9s %9s\n" "" "Ala-trace" "Ala-sim"
    "SALAM-comp" "SALAM-sim" "pre-spd" "sim-spd";
  let pre_speedups = ref [] and sim_speedups = ref [] in
  List.iter
    (fun w ->
      (* Aladdin preprocessing: instrumented execution + trace file *)
      let (file, _), t_trace = time (fun () -> trace_of w) in
      (* Aladdin simulation: load the trace and schedule it *)
      let _, t_alasim =
        time (fun () ->
            let events = Salam_aladdin.Trace.load ~file in
            ignore
              (Salam_aladdin.Scheduler.schedule events (Salam_aladdin.Scheduler.Fixed_latency 1)))
      in
      Sys.remove file;
      (* SALAM preprocessing: compile the kernel (uncached) *)
      let _, t_compile =
        time (fun () -> ignore (Salam_frontend.Compile.kernel w.W.kernel))
      in
      (* SALAM simulation: full-system event-driven run *)
      let r, _ = time (fun () -> Salam.simulate w) in
      let t_sim = r.Salam.wall_seconds in
      let pre = t_trace /. t_compile and sim = t_alasim /. t_sim in
      pre_speedups := pre :: !pre_speedups;
      sim_speedups := sim :: !sim_speedups;
      Printf.printf "%-22s | %9.4fs %9.4fs | %9.4fs %9.4fs | %8.1fx %8.1fx\n" (short_name w)
        t_trace t_alasim t_compile t_sim pre sim)
    (suite ());
  Printf.printf "average speedup: preprocessing %.0fx, simulation %.2fx  (paper: 123x / 697x)\n%!"
    (mean !pre_speedups) (mean !sim_speedups)
