(* Snapshot guards and fast-forward bit-identity tests. *)

open Alcotest
module Engine = Salam_engine.Engine
module Kernel = Salam_sim.Kernel
module System = Salam_soc.System

let expect_invalid_arg name f =
  match f () with
  | _ -> fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* Every in-flight request holds a scheduled event, so a queued event is
   what an undrained device looks like to [System.snapshot]. *)
let test_snapshot_refuses_queued_event () =
  let sys = System.create () in
  let kernel = System.kernel sys in
  Kernel.schedule_at kernel ~tick:1000L ignore;
  expect_invalid_arg "event queued" (fun () -> System.snapshot sys);
  ignore (System.run sys);
  let _, tick = System.snapshot sys in
  check int64 "drained: the snapshot takes the current tick" 1000L tick

let test_restore_refuses_a_system_that_ran () =
  let image, tick = System.snapshot (System.create ()) in
  let ran = System.create () in
  Kernel.schedule_at (System.kernel ran) ~tick:1000L ignore;
  expect_invalid_arg "event queued" (fun () -> System.restore ran image ~tick);
  ignore (System.run ran);
  expect_invalid_arg "event executed" (fun () -> System.restore ran image ~tick);
  System.restore (System.create ()) image ~tick

(* --- fast-forward bit-identity ----------------------------------------- *)

let test_ff_oracle_gemm_spm () =
  match
    Check_snapshot.check_fast_forward ~roadmark:1 ~invocations:2
      (Salam_workloads.Gemm.workload ~n:8 ())
  with
  | Ok () -> ()
  | Error msg -> fail ("fast-forward not bit-identical: " ^ msg)

let test_ff_oracle_matrix () =
  (* every memory attachment x both engine modes, snapshot mid-schedule *)
  let reports =
    List.concat_map
      (fun config ->
        Check_snapshot.check_all ~config ~roadmark:2 ~invocations:3
          [ Salam_workloads.Gemm.workload ~n:8 () ])
      [ Salam.Config.default; Test_check.cache_config ~size:2048 ~ways:2; Test_check.dram_config ]
  in
  check int "six points" 6 (List.length reports);
  List.iter
    (fun r ->
      match r.Check_oracle.r_result with
      | Ok () -> ()
      | Error msg -> fail (r.Check_oracle.r_subject ^ ": " ^ msg))
    reports

let test_warm_up_zero_matches_cold_run () =
  (* the "start" roadmark: restoring a freshly initialized snapshot must
     reproduce a cold single-invocation run exactly *)
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let cold = Salam.simulate w in
  let snap = Salam.warm_up ~invocations:0 w in
  check string "roadmark name" "start" (Salam.roadmark_name snap.Salam.snap_invocations);
  let restored = Salam.simulate ~from:snap ~invocations:1 w in
  check bool "correct" true restored.Salam.correct;
  check int64 "cycles" cold.Salam.cycles restored.Salam.cycles;
  check bool "engine stats" true (cold.Salam.stats = restored.Salam.stats);
  check bool "system stats" true (cold.Salam.sim_stats = restored.Salam.sim_stats)

let test_snapshot_shape_mismatches_rejected () =
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let snap = Salam.warm_up ~invocations:1 w in
  expect_invalid_arg "different workload" (fun () ->
      Salam.simulate ~from:snap ~invocations:2 (Salam_workloads.Gemm.workload ~n:4 ()));
  expect_invalid_arg "different memory kind" (fun () ->
      Salam.simulate
        ~config:{ Salam.Config.default with Salam.Config.memory = Salam.Config.Dram_direct }
        ~from:snap ~invocations:2 w);
  expect_invalid_arg "roadmark past the schedule" (fun () ->
      Salam.simulate ~from:snap ~invocations:1 w)

let test_snapshot_reusable_across_design_points () =
  (* interpret once, simulate many: one snapshot seeds design points
     that differ in every timing knob *)
  let w = Salam_workloads.Gemm.workload ~n:8 ~unroll:4 () in
  let snap = Salam.warm_up ~invocations:1 w in
  let spm_config latency =
    {
      Salam.Config.default with
      Salam.Config.memory =
        Salam.Config.Spm { read_ports = 2; write_ports = 1; banks = 2; latency };
    }
  in
  let results =
    Salam.simulate_jobs
      [
        Salam.job ~invocations:2 ~from:snap (spm_config 1) w;
        Salam.job ~invocations:2 ~from:snap (spm_config 8) w;
      ]
  in
  List.iter (fun r -> check bool "correct" true r.Salam.correct) results;
  match results with
  | [ fast; slow ] ->
      check bool "SPM latency changes timing" true
        (Int64.compare slow.Salam.cycles fast.Salam.cycles > 0)
  | _ -> fail "expected two results"

(* --- one source for engine statistics ----------------------------------- *)

(* Every [run_stats] field under the name of its scalar in the
   accelerator's [<name>.engine] group, in registration order. *)
let engine_entries (s : Engine.run_stats) =
  let i n = float_of_int n in
  let per_class group values =
    List.map
      (fun cls ->
        ( group ^ "." ^ Salam_hw.Fu.to_string cls,
          match List.assoc_opt cls values with Some v -> v | None -> 0.0 ))
      Salam_hw.Fu.all
  in
  [
    ("cycles", Int64.to_float s.Engine.cycles);
    ("dynamic_instructions", i s.Engine.dynamic_instructions);
    ("loads_issued", i s.Engine.loads_issued);
    ("stores_issued", i s.Engine.stores_issued);
    ("active_cycles", i s.Engine.active_cycles);
    ("issue_cycles", i s.Engine.issue_cycles);
    ("stall_cycles", i s.Engine.stall_cycles);
    ("stall_load_only", i s.Engine.stall_load_only);
    ("stall_load_compute", i s.Engine.stall_load_compute);
    ("stall_load_store_compute", i s.Engine.stall_load_store_compute);
    ("stall_other", i s.Engine.stall_other);
    ("cycles_with_load", i s.Engine.cycles_with_load);
    ("cycles_with_store", i s.Engine.cycles_with_store);
    ("cycles_with_load_and_store", i s.Engine.cycles_with_load_and_store);
    ("cycles_with_fp", i s.Engine.cycles_with_fp);
    ("issued_fp", i s.Engine.issued_fp);
    ("issued_int", i s.Engine.issued_int);
    ("issued_mem", i s.Engine.issued_mem);
    ("issued_other", i s.Engine.issued_other);
    ("dynamic_fu_energy_pj", s.Engine.dynamic_fu_energy_pj);
    ("dynamic_reg_energy_pj", s.Engine.dynamic_reg_energy_pj);
  ]
  @ per_class "issued_by_class" (List.map (fun (c, n) -> (c, i n)) s.Engine.issued_by_class)
  @ per_class "fu_busy_integral" s.Engine.fu_busy_integral

(* the [<acc>.engine.*] entries of a flattened stats tree, prefix cut *)
let tree_entries (w : Salam_workloads.Workload.t) sim_stats =
  let prefix = w.Salam_workloads.Workload.name ^ ".engine." in
  let n = String.length prefix in
  List.filter_map
    (fun (path, v) ->
      if String.length path > n && String.sub path 0 n = prefix then
        Some (String.sub path n (String.length path - n), v)
      else None)
    sim_stats

(* The engine's counters live in the system's statistics tree and
   nowhere else: [run_stats] reads every one of them back, and a
   restore into a freshly built system leaves a fast-forwarded run
   counting only the post-roadmark epoch (the uninterrupted run's end
   minus its roadmark probe). *)
let test_engine_stats_one_source () =
  let label (w : Salam_workloads.Workload.t) config what =
    Printf.sprintf "%s %s %s %s" w.Salam_workloads.Workload.name
      (Salam.Config.memory_name config)
      (Engine.mode_to_string config.Salam.Config.engine.Engine.mode)
      what
  in
  let same_as_record w config what (r : Salam.result) =
    let entries = engine_entries r.Salam.stats in
    check (list (pair string (float 0.0))) (label w config what) entries
      (tree_entries w r.Salam.sim_stats)
  in
  List.iter
    (fun (w : Salam_workloads.Workload.t) ->
      List.iter
        (fun memory_config ->
          List.iter
            (fun mode ->
              let config =
                {
                  memory_config with
                  Salam.Config.engine = { memory_config.Salam.Config.engine with Engine.mode };
                }
              in
              let probe = ref [] in
              let plain =
                Salam.simulate ~config ~invocations:2
                  ~probe:(1, fun p -> probe := tree_entries w p.Salam.pr_sim_stats)
                  w
              in
              let ff =
                Salam.simulate ~config ~invocations:2
                  ~from:(Salam.warm_up ~config ~invocations:1 w)
                  w
              in
              same_as_record w config "plain" plain;
              same_as_record w config "fast-forwarded" ff;
              (* end minus probe: integer counts exactly, energy sums
                 within the rounding of one float subtraction *)
              let epoch =
                List.map2
                  (fun (path, e) (path', p) ->
                    assert (path = path');
                    (path, e -. p))
                  (tree_entries w plain.Salam.sim_stats)
                  !probe
              in
              List.iter2
                (fun (path, want) (path', got) ->
                  check string "same counter" path path';
                  let tolerance = 1e-9 *. (1.0 +. abs_float want) in
                  if abs_float (want -. got) > tolerance then
                    failf "%s: %s is %g after restore, %g in the uninterrupted epoch"
                      (label w config "fast-forwarded") path got want)
                epoch
                (tree_entries w ff.Salam.sim_stats);
              check bool
                (label w config "counts one invocation")
                true
                (ff.Salam.stats.Engine.dynamic_instructions
                < plain.Salam.stats.Engine.dynamic_instructions))
            [ Engine.Dynamic; Engine.Compiled ])
        [ Salam.Config.default; Test_check.cache_config ~size:2048 ~ways:2 ])
    (Salam_workloads.Suite.quick ())

let suite =
  [
    test_case "snapshot refuses a queued event" `Quick test_snapshot_refuses_queued_event;
    test_case "restore refuses a system that ran" `Quick test_restore_refuses_a_system_that_ran;
    test_case "ff oracle gemm spm" `Quick test_ff_oracle_gemm_spm;
    test_case "ff oracle full matrix" `Slow test_ff_oracle_matrix;
    test_case "warm-up at start matches cold run" `Quick test_warm_up_zero_matches_cold_run;
    test_case "shape mismatches rejected" `Quick test_snapshot_shape_mismatches_rejected;
    test_case "one snapshot, many design points" `Quick test_snapshot_reusable_across_design_points;
    test_case "one source for engine statistics" `Quick test_engine_stats_one_source;
  ]
