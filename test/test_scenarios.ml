(* Tests for the multi-accelerator CNN scenarios (Fig 16): all three
   integrations must produce the golden tensor and preserve the paper's
   performance ordering. *)

open Salam_scenarios

let check = Alcotest.check

let test_all_scenarios_correct_and_ordered () =
  match Cnn_pipeline.run_all ~h:16 ~w:16 () with
  | [ private_spm; shared; streams ] ->
      List.iter
        (fun (o : Cnn_pipeline.outcome) ->
          check Alcotest.bool (o.Cnn_pipeline.scenario ^ " correct") true o.Cnn_pipeline.correct)
        [ private_spm; shared; streams ];
      check Alcotest.bool "shared SPM beats private+DMA" true
        (shared.Cnn_pipeline.total_us < private_spm.Cnn_pipeline.total_us);
      check Alcotest.bool "streams beat shared SPM" true
        (streams.Cnn_pipeline.total_us < shared.Cnn_pipeline.total_us)
  | _ -> Alcotest.fail "expected three scenarios"

let test_stage_cycles_reported () =
  let o = Cnn_pipeline.run_private_spm ~h:16 ~w:16 () in
  check Alcotest.int "three stages" 3 (List.length o.Cnn_pipeline.stage_cycles);
  List.iter
    (fun (_, cycles) -> check Alcotest.bool "stage ran" true (Int64.compare cycles 0L > 0))
    o.Cnn_pipeline.stage_cycles

(* The scenarios share one compiled function per kernel across runs, so
   a run that mutated it would change the next run's outcome. *)
let test_rerun_same_outcome () =
  List.iter
    (fun (name, run) ->
      let first : Cnn_pipeline.outcome = run () in
      check Alcotest.bool (name ^ " correct") true first.Cnn_pipeline.correct;
      check Alcotest.bool (name ^ " second run equal") true (run () = first))
    [
      ("private_spm", fun () -> Cnn_pipeline.run_private_spm ~h:8 ~w:8 ());
      ("shared_spm", fun () -> Cnn_pipeline.run_shared_spm ~h:8 ~w:8 ());
      ("streams", fun () -> Cnn_pipeline.run_streams ~h:8 ~w:8 ());
    ]

(* a stream DMA feeding an accelerator's pop window from DRAM, and a
   second one draining its push window back to DRAM: the remaining
   stream-integration path (Fig 16c's data movers) *)
let test_stream_dma_feeds_accelerator () =
  let open Salam_soc in
  let open Salam_frontend.Lang in
  let n = 64 in
  let kern =
    kernel "stream_double"
      ~params:[ array "ins" Salam_ir.Ty.F64 [ n ]; array "outs" Salam_ir.Ty.F64 [ n ] ]
      [
        for_ "k" (i 0) (i n)
          [ store "outs" [ v "k" ] (idx "ins" [ v "k" ] *: f 2.0) ];
      ]
  in
  let func = Salam_frontend.Compile.kernel kern in
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"c" ~clock_mhz:500.0 () in
  let acc = Accelerator.create sys ~name:"dbl" ~clock_mhz:500.0 func in
  Cluster.add_accelerator cluster acc;
  (* in and out FIFOs, with the accelerator as consumer resp. producer *)
  let in_fifo =
    Salam_mem.Stream_buffer.create (System.kernel sys)
      (Accelerator.clock acc) (System.stats sys) ~name:"in_fifo" ~capacity_bytes:128
  in
  let out_fifo =
    Salam_mem.Stream_buffer.create (System.kernel sys)
      (Accelerator.clock acc) (System.stats sys) ~name:"out_fifo" ~capacity_bytes:128
  in
  let pop_base = System.alloc_region sys ~bytes:(n * 8) in
  let push_base = System.alloc_region sys ~bytes:(n * 8) in
  Comm_interface.map_stream_pop (Accelerator.comm acc) ~base:pop_base ~size:(n * 8) in_fifo;
  Comm_interface.map_stream_push (Accelerator.comm acc) ~base:push_base ~size:(n * 8) out_fifo;
  Accelerator.add_ordered_range acc ~base:pop_base ~size:(n * 8);
  Accelerator.add_ordered_range acc ~base:push_base ~size:(n * 8);
  let dram_in = System.alloc_region sys ~bytes:(n * 8) in
  let dram_out = System.alloc_region sys ~bytes:(n * 8) in
  let data = Array.init n (fun k -> float_of_int k /. 3.0) in
  Salam_ir.Memory.write_f64_array (System.backing sys) dram_in data;
  let sdma_in = Cluster.stream_dma cluster ~name:"sdma_in" ~chunk_bytes:8 in
  let sdma_out = Cluster.stream_dma cluster ~name:"sdma_out" ~chunk_bytes:8 in
  let done_count = ref 0 in
  Salam_mem.Dma.Stream.stream_in sdma_in ~buffer:in_fifo ~src:dram_in ~len:(n * 8)
    ~on_done:(fun () -> incr done_count);
  Salam_mem.Dma.Stream.stream_out sdma_out ~buffer:out_fifo ~dst:dram_out ~len:(n * 8)
    ~on_done:(fun () -> incr done_count);
  Accelerator.launch acc
    ~args:[ Salam_ir.Bits.Int pop_base; Salam_ir.Bits.Int push_base ]
    ~on_done:(fun _ -> incr done_count);
  ignore (System.run sys);
  check Alcotest.int "dma-in, dma-out and kernel all finished" 3 !done_count;
  let out = Salam_ir.Memory.read_f64_array (System.backing sys) dram_out n in
  check Alcotest.bool "values doubled through two FIFOs" true
    (Array.for_all2 (fun got x -> abs_float (got -. (2.0 *. x)) < 1e-12) out data)

(* Check mode (every cycle's FU caps, end-of-run quiescence and stall
   accounting) holds on all three scenarios in both engine modes, and
   neither the mode nor the checks move an outcome: every run equals the
   default one (compiled, check off) in time, per-stage cycles and
   instructions. *)
let test_check_mode_both_modes () =
  let module Engine = Salam_engine.Engine in
  List.iter
    (fun (name, run) ->
      let base : Cnn_pipeline.outcome = run Engine.default_config in
      check Alcotest.bool (name ^ " correct") true base.Cnn_pipeline.correct;
      List.iter
        (fun mode ->
          let o : Cnn_pipeline.outcome = run { Engine.default_config with Engine.mode; check = true } in
          let what = Printf.sprintf "%s, %s mode, check on: " name (Engine.mode_to_string mode) in
          check Alcotest.bool (what ^ "correct") true o.Cnn_pipeline.correct;
          check (Alcotest.float 0.) (what ^ "total_us") base.Cnn_pipeline.total_us
            o.Cnn_pipeline.total_us;
          check
            Alcotest.(list (pair string int64))
            (what ^ "stage_cycles") base.Cnn_pipeline.stage_cycles o.Cnn_pipeline.stage_cycles;
          check Alcotest.int (what ^ "dynamic instructions") base.Cnn_pipeline.dynamic_instructions
            o.Cnn_pipeline.dynamic_instructions)
        [ Engine.Compiled; Engine.Dynamic ])
    [
      ("private_spm", fun engine_config -> Cnn_pipeline.run_private_spm ~h:8 ~w:8 ~engine_config ());
      ("shared_spm", fun engine_config -> Cnn_pipeline.run_shared_spm ~h:8 ~w:8 ~engine_config ());
      ("streams", fun engine_config -> Cnn_pipeline.run_streams ~h:8 ~w:8 ~engine_config ());
    ]

let suite =
  [
    Alcotest.test_case "scenarios correct and ordered" `Slow test_all_scenarios_correct_and_ordered;
    Alcotest.test_case "stage cycles reported" `Slow test_stage_cycles_reported;
    Alcotest.test_case "stream DMA end-to-end" `Quick test_stream_dma_feeds_accelerator;
    Alcotest.test_case "scenario reruns give equal outcomes" `Quick test_rerun_same_outcome;
    Alcotest.test_case "scenarios under check mode, both engine modes" `Quick
      test_check_mode_both_modes;
  ]
