(* Checkpoint restore matching and fast-forward bit-identity tests. *)

open Alcotest
module Ckpt = Salam_sim.Checkpoint
module Engine = Salam_engine.Engine

let expect_invalid name f =
  match f () with
  | _ -> fail (name ^ ": expected Checkpoint.Invalid")
  | exception Ckpt.Invalid _ -> ()

let test_restore_matching_is_bidirectional () =
  let agent name =
    { Ckpt.agent_name = name; capture = (fun () -> []); restore = (fun _ -> ()) }
  in
  let ckpt = Ckpt.capture_all ~roadmark:"start" ~tick:0L [ agent "a"; agent "b" ] in
  (* an agent the snapshot does not cover *)
  expect_invalid "extra agent" (fun () ->
      Ckpt.restore_all ckpt [ agent "a"; agent "b"; agent "c" ]);
  (* a section no agent claims *)
  expect_invalid "missing agent" (fun () -> Ckpt.restore_all ckpt [ agent "a" ]);
  Ckpt.restore_all ckpt [ agent "a"; agent "b" ]

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
      match r.Check_snapshot.r_result with
      | Ok () -> ()
      | Error msg -> fail (Check_snapshot.report_to_string r ^ ": " ^ msg))
    reports

let test_warm_up_zero_matches_cold_run () =
  (* the "start" roadmark: restoring a freshly initialized snapshot must
     reproduce a cold single-invocation run exactly *)
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let cold = Salam.simulate w in
  let snap = Salam.warm_up ~invocations:0 w in
  check string "roadmark name" "start" snap.Salam.snap_ckpt.Ckpt.roadmark;
  let restored = Salam.simulate ~from:snap ~invocations:1 w in
  check bool "correct" true restored.Salam.correct;
  check int64 "cycles" cold.Salam.cycles restored.Salam.cycles;
  check bool "engine stats" true (cold.Salam.stats = restored.Salam.stats);
  check bool "system stats" true (cold.Salam.sim_stats = restored.Salam.sim_stats)

let test_snapshot_shape_mismatches_rejected () =
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let snap = Salam.warm_up ~invocations:1 w in
  let expect_invalid_arg name f =
    match f () with
    | _ -> fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
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

let suite =
  [
    test_case "restore matching is bidirectional" `Quick test_restore_matching_is_bidirectional;
    test_case "ff oracle gemm spm" `Quick test_ff_oracle_gemm_spm;
    test_case "ff oracle full matrix" `Slow test_ff_oracle_matrix;
    test_case "warm-up at start matches cold run" `Quick test_warm_up_zero_matches_cold_run;
    test_case "shape mismatches rejected" `Quick test_snapshot_shape_mismatches_rejected;
    test_case "one snapshot, many design points" `Quick test_snapshot_reusable_across_design_points;
  ]
