(* Design-space-exploration experiments: Fig 4 (power breakdown), Fig 13
   (GEMM Pareto), Fig 14 (stall analysis vs ports), Fig 15 (co-design
   sweeps) and the ablation of the engine's design choices.

   Figs 13–15 are generated through `salam_dse`: each figure declares
   its space and the subsystem enumerates, batches and measures it. The
   three figures share one in-memory result store, so design points
   that appear in more than one figure (e.g. the fu=1:1 port sweep) are
   simulated exactly once per bench process. *)

open Bench_util
module Engine = Salam_engine.Engine
module Fu = Salam_hw.Fu
module Dse = Salam_dse.Explore
module Space = Salam_dse.Space
module Point = Salam_dse.Point
module Store_shard = Salam_dse.Store_shard
module M = Salam_dse.Measurement

(* Fig 4: the seven power components, normalised per benchmark. *)
let fig4 () =
  section "FIG 4 — Total power breakdown with private SPM (% of total)";
  Printf.printf "%-24s %7s %7s %7s %7s %7s %7s %7s %9s\n" "benchmark" "dynFU" "dynREG"
    "dynSPMr" "dynSPMw" "statFU" "statREG" "statSPM" "total mW";
  let suite = Salam_workloads.Suite.standard () in
  let results =
    Salam.simulate_jobs (List.map (Salam.job Salam.Config.default) suite)
  in
  List.iter2
    (fun w r ->
      let p = r.Salam.power in
      let total = Salam.total_mw p in
      let f x = pct (x /. total) in
      Printf.printf "%-24s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %9.2f\n"
        (short_name w) (f p.Salam.dynamic_fu_mw) (f p.Salam.dynamic_reg_mw)
        (f p.Salam.dynamic_mem_read_mw) (f p.Salam.dynamic_mem_write_mw)
        (f p.Salam.static_fu_mw) (f p.Salam.static_reg_mw) (f p.Salam.static_mem_mw) total)
    suite results;
  print_newline ()

let gemm_dse_workload () = Salam_workloads.Gemm.workload ~n:16 ~unroll:16 ~junroll:8 ()

(* the Fig 13–15 vehicle: 16x16 GEMM, k-loop fully unrolled, j-loop 8x *)
let gemm_target = Dse.gemm_target ~n:16 ()

let dse_base = { Point.default with Point.unroll = 16; junroll = 8 }

(* one store per bench process: points shared between figures hit *)
let shared_store = lazy (Store_shard.in_memory ())

let explore spaces =
  Dse.run ~store:(Lazy.force shared_store) ~target:gemm_target ~strategy:Dse.Exhaustive
    spaces

let port_sweep = [ 64; 32; 16; 8; 4; 2 ]

(* the whole port sweep is one declared axis; salam_dse batches it *)
let sweep_ports ?(fu_limit = 0) () =
  let report =
    explore
      [
        Space.create ~base:dse_base ~derive:Space.spm_balanced
          [ Space.Read_ports port_sweep; Space.Fu_limit [ fu_limit ] ];
      ]
  in
  List.map (fun (m : M.t) -> (m.M.point.Point.read_ports, m)) report.Dse.measurements

(* Fig 13: power/performance Pareto across FU counts and bandwidth. *)
let fig13 () =
  section "FIG 13 — GEMM design-space Pareto (execution time vs power)";
  Printf.printf "%-34s %12s %14s %14s\n" "configuration" "time (us)" "datapath mW"
    "datapath+mem mW";
  let report =
    explore
      [
        (* the SPM cloud: FU budget x bandwidth *)
        Space.create ~base:dse_base ~derive:Space.spm_balanced
          [ Space.Fu_limit [ 2; 4; 8; 0 ]; Space.Read_ports [ 1; 2; 4; 8; 16 ] ];
        (* the cache cloud: capacity sweep at the default interface *)
        Space.create ~base:dse_base
          [ Space.Memory [ Point.Cache ]; Space.Cache_bytes [ 512; 2048; 8192 ] ];
      ]
  in
  List.iter
    (fun (m : M.t) ->
      let p = m.M.point in
      let label =
        match p.Point.memory with
        | Point.Cache -> Printf.sprintf "cache %dB" p.Point.cache_bytes
        | _ ->
            Printf.sprintf "SPM, %s FADD/FMUL, %d rd ports"
              (if p.Point.fu_limit = 0 then "1:1" else string_of_int p.Point.fu_limit)
              p.Point.read_ports
      in
      Printf.printf "%-34s %12.2f %14.2f %14.2f\n" label (m.M.seconds *. 1e6)
        m.M.datapath_mw m.M.total_mw)
    report.Dse.measurements;
  Printf.printf "\nPareto front (time/power/area): %d of %d points\n"
    (List.length report.Dse.front)
    (List.length report.Dse.measurements);
  print_newline ()

(* Fig 14: stall behaviour across read/write port counts. *)
let fig14 () =
  section "FIG 14(a) — Stalled vs new-execution cycles per R/W port count (GEMM)";
  Printf.printf "%-10s %12s %12s %12s\n" "ports" "stall %" "issue %" "cycles";
  let runs = sweep_ports () in
  List.iter
    (fun (ports, (m : M.t)) ->
      let active = float_of_int m.M.active_cycles in
      Printf.printf "%-10d %11.1f%% %11.1f%% %12Ld\n" ports
        (pct (float_of_int m.M.stall_cycles /. active))
        (pct (float_of_int m.M.issue_cycles /. active))
        m.M.cycles)
    runs;
  section "FIG 14(b) — Stall-cause breakdown (% of stalled cycles)";
  Printf.printf "%-10s %18s %24s %10s\n" "ports" "load+compute" "load+store+compute" "other";
  List.iter
    (fun (ports, (m : M.t)) ->
      let stalls = float_of_int (max 1 m.M.stall_cycles) in
      Printf.printf "%-10d %17.1f%% %23.1f%% %9.1f%%\n" ports
        (pct (float_of_int m.M.stall_load_compute /. stalls))
        (pct (float_of_int m.M.stall_load_store_compute /. stalls))
        (pct (float_of_int (m.M.stall_other + m.M.stall_load_only) /. stalls)))
    runs;
  print_newline ()

(* Fig 15: co-design with constrained FADD units. *)
let fig15 () =
  let fu_limit = 8 in
  section
    (Printf.sprintf
       "FIG 15 — Co-design sweeps (GEMM, %d FADD/FMUL units held constant)" fu_limit);
  let runs = sweep_ports ~fu_limit () in
  Printf.printf "(a) %-6s %10s %10s\n" "ports" "stall %" "issue %";
  List.iter
    (fun (ports, (m : M.t)) ->
      let active = float_of_int m.M.active_cycles in
      Printf.printf "    %-6d %9.1f%% %9.1f%%\n" ports
        (pct (float_of_int m.M.stall_cycles /. active))
        (pct (float_of_int m.M.issue_cycles /. active)))
    runs;
  Printf.printf "(b) %-6s %12s %12s %12s %16s\n" "ports" "load&store %" "load only %"
    "store only %" "FMUL occupancy";
  List.iter
    (fun (ports, (m : M.t)) ->
      let active = float_of_int m.M.active_cycles in
      let both = float_of_int m.M.cycles_with_load_and_store in
      let load_only = float_of_int (m.M.cycles_with_load - m.M.cycles_with_load_and_store) in
      let store_only =
        float_of_int (m.M.cycles_with_store - m.M.cycles_with_load_and_store)
      in
      Printf.printf "    %-6d %11.1f%% %11.1f%% %11.1f%% %15.1f%%\n" ports
        (pct (both /. active)) (pct (load_only /. active)) (pct (store_only /. active))
        (pct m.M.fmul_occupancy))
    runs;
  Printf.printf "(c) %-6s %10s %10s %10s %12s\n" "ports" "load %" "store %" "fp %" "cycles";
  List.iter
    (fun (ports, (m : M.t)) ->
      let scheduled =
        float_of_int (max 1 (m.M.issued_fp + m.M.issued_int + m.M.issued_mem))
      in
      Printf.printf "    %-6d %9.1f%% %9.1f%% %9.1f%% %12Ld\n" ports
        (pct (float_of_int m.M.loads_issued /. scheduled))
        (pct (float_of_int m.M.stores_issued /. scheduled))
        (pct (float_of_int m.M.issued_fp /. scheduled))
        m.M.cycles)
    runs;
  Printf.printf "(d) %-6s %10s %10s %10s %16s\n" "ports" "load %" "store %" "fp %"
    "datapath mW";
  List.iter
    (fun (ports, (m : M.t)) ->
      let scheduled =
        float_of_int (max 1 (m.M.issued_fp + m.M.issued_int + m.M.issued_mem))
      in
      Printf.printf "    %-6d %9.1f%% %9.1f%% %9.1f%% %16.2f\n" ports
        (pct (float_of_int m.M.loads_issued /. scheduled))
        (pct (float_of_int m.M.stores_issued /. scheduled))
        (pct (float_of_int m.M.issued_fp /. scheduled))
        m.M.datapath_mw)
    runs;
  print_newline ()

(* Cycle-time sweep: the gemm16 DSE point measured under every row of
   the shipped characterization database. Slower cycle times buy lower
   operator latencies (in cycles), so total cycle counts must be
   monotone non-increasing in cycle time — a violated row means the
   derived tables and the engine disagree, and the sweep exits 1.
   test_config pins the per-row cycle counts. *)
let ct_sweep () =
  let cts = Salam_config.cycle_times Salam_config.builtin in
  section
    (Printf.sprintf "CT — gemm16 across the %s cycle-time rows (%s ns)"
       (Salam_config.name Salam_config.builtin)
       (String.concat ", " (List.map (Printf.sprintf "%g") cts)));
  let report =
    explore
      [ Space.create ~base:dse_base ~derive:Space.spm_balanced
          [ Space.Cycle_time_ns cts ] ]
  in
  let runs =
    List.sort
      (fun (a : M.t) (b : M.t) ->
        compare a.M.point.Point.cycle_time_ns b.M.point.Point.cycle_time_ns)
      report.Dse.measurements
  in
  Printf.printf "%-10s %10s %12s %12s %14s\n" "ct (ns)" "clock MHz" "cycles"
    "time (us)" "datapath mW";
  List.iter
    (fun (m : M.t) ->
      let p = m.M.point in
      Printf.printf "%-10g %10.1f %12Ld %12.2f %14.2f\n" p.Point.cycle_time_ns
        p.Point.clock_mhz m.M.cycles (m.M.seconds *. 1e6) m.M.datapath_mw)
    runs;
  (* sanity gate: cycles non-increasing as the clock relaxes *)
  ignore
    (List.fold_left
       (fun prev (m : M.t) ->
         if m.M.cycles > prev then begin
           Printf.eprintf
             "cycle count increased at ct=%gns (%Ld > %Ld): derived latencies \
              disagree with the engine\n"
             m.M.point.Point.cycle_time_ns m.M.cycles prev;
           exit 1
         end;
         m.M.cycles)
       Int64.max_int runs);
  print_newline ()

(* Ablation of the engine's design choices (DESIGN.md): the hazard rules
   and memory disambiguation that realise the paper's scheduling
   semantics. *)
let ablation () =
  section "ABLATION — engine design choices (cycles)";
  Printf.printf "%-24s %12s %12s %12s %12s\n" "benchmark" "full" "no WAR" "no WAW"
    "no disambig";
  let workloads =
    [
      Salam_workloads.Gemm.workload ~n:16 ~unroll:2 ();
      Salam_workloads.Md_knn.workload ~atoms:64 ~neighbours:16 ();
      Salam_workloads.Stencil2d.workload ~rows:32 ~cols:32 ();
    ]
  in
  let base = Engine.default_config in
  let variants =
    [
      base;
      { base with Engine.enforce_war = false };
      { base with Engine.enforce_waw = false };
      { base with Engine.disambiguate_memory = false };
    ]
  in
  let jobs =
    List.concat_map
      (fun w ->
        List.map
          (fun e -> Salam.job { Salam.Config.default with Salam.Config.engine = e } w)
          variants)
      workloads
  in
  let cycles = List.map (fun r -> r.Salam.cycles) (Salam.simulate_jobs jobs) in
  List.iteri
    (fun i w ->
      match List.filteri (fun j _ -> j / 4 = i) cycles with
      | [ full; no_war; no_waw; no_dis ] ->
          Printf.printf "%-24s %12Ld %12Ld %12Ld %12Ld\n" (short_name w) full no_war
            no_waw no_dis
      | _ -> assert false)
    workloads;
  Printf.printf
    "(the WAR rule is the paper's Sec III-B reader check; disabling rules is diagnostic only)\n%!"
