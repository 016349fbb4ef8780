(* Determinism regression for the dynamic engine.

   The expected values below were captured from the engine before its
   hot-loop data structures were rewritten (ring-buffer reservation
   queue, intrusive live-memory list, wake-up driven ready queue). The
   rewrite is required to be a pure representation change: every
   workload must reproduce the seed's cycle count and stall breakdown
   bit for bit. If an intentional semantic change ever lands, re-capture
   this table in the same commit and say why. *)

module Engine = Salam_engine.Engine
module W = Salam_workloads.Workload

(* (cycles, dynamic_instructions, loads, stores, active, issue, stall,
   stall_load_only, stall_load_compute, stall_load_store_compute,
   stall_other) *)
let expected :
    (string * (int64 * int * int * int * int * int * int * int * int * int * int)) list =
  [
    ("quick/bfs_queue_n32", (1443L, 2245, 320, 64, 1443, 1219, 224, 0, 224, 0, 0));
    ("quick/fft_strided_64", (2310L, 9950, 2568, 1026, 2310, 2269, 41, 0, 41, 0, 0));
    ("quick/gemm_ncubed_n8_u1_j1", (1973L, 7151, 1024, 64, 1973, 1972, 1, 0, 0, 0, 1));
    ("quick/md_grid_s2_d3", (5590L, 17374, 1010, 264, 5590, 3513, 2077, 0, 1658, 419, 0));
    ("quick/md_knn_16x8", (6165L, 6413, 560, 48, 6165, 1797, 4368, 0, 1736, 2553, 79));
    ("quick/nw_16", (1771L, 8936, 1280, 290, 1771, 1770, 1, 0, 0, 0, 1));
    ("quick/spmv_crs_n24_d1", (1290L, 2527, 336, 24, 1290, 1109, 181, 0, 59, 0, 122));
    ("quick/stencil2d_12x12_u1", (5164L, 17958, 1800, 100, 5164, 5164, 0, 0, 0, 0, 0));
    ("quick/stencil3d_6_u1", (988L, 2596, 448, 64, 988, 604, 384, 0, 32, 192, 160));
    ("standard/bfs_queue_n128", (7171L, 10757, 1536, 256, 7171, 6019, 1152, 0, 1152, 0, 0));
    ("standard/fft_strided_256", (12734L, 54216, 14344, 5634, 12734, 12447, 287, 0, 287, 0, 0));
    ("standard/gemm_ncubed_n16_u2_j1", (12305L, 42711, 8192, 256, 12305, 9288, 3017, 0, 2048, 960, 9));
    ("standard/md_grid_s3_d4", (100004L, 195771, 12569, 2568, 100004, 44732, 55272, 0, 9845, 45346, 81));
    ("standard/md_knn_64x16", (49173L, 48653, 4288, 192, 49173, 14092, 35081, 0, 24281, 10721, 79));
    ("standard/nw_32", (6731L, 34744, 5120, 1090, 6731, 6730, 1, 0, 0, 0, 1));
    ("standard/spmv_crs_n64_d1", (6246L, 12103, 1664, 64, 6246, 5509, 737, 0, 159, 0, 578));
    ("standard/stencil2d_32x32_u1", (46084L, 160658, 16200, 900, 46084, 46084, 0, 0, 0, 0, 0));
    ("standard/stencil3d_12_u1", (14164L, 37558, 7000, 1000, 14164, 8164, 6000, 0, 500, 3000, 2500));
  ]

let tuple_of_stats (s : Engine.run_stats) =
  ( s.Engine.cycles,
    s.Engine.dynamic_instructions,
    s.Engine.loads_issued,
    s.Engine.stores_issued,
    s.Engine.active_cycles,
    s.Engine.issue_cycles,
    s.Engine.stall_cycles,
    s.Engine.stall_load_only,
    s.Engine.stall_load_compute,
    s.Engine.stall_load_store_compute,
    s.Engine.stall_other )

let show (c, d, l, s, a, i, st, s1, s2, s3, s4) =
  Printf.sprintf "(%Ld, %d, %d, %d, %d, %d, %d, %d, %d, %d, %d)" c d l s a i st s1 s2 s3 s4

(* Both scheduling implementations must reproduce the one table: the
   compiled engine is a specialization of the dynamic one, not a
   different timing model. *)
let modes = [ Engine.Dynamic; Engine.Compiled ]

let check_workload tag mode (w : W.t) =
  let key = tag ^ "/" ^ w.W.name in
  match List.assoc_opt key expected with
  | None -> Alcotest.failf "%s missing from the expected table — re-capture it" key
  | Some want ->
      let config =
        { Salam.Config.default with Salam.Config.engine = { Engine.default_config with Engine.mode } }
      in
      let r = Salam.simulate ~config w in
      let label = key ^ " (" ^ Engine.mode_to_string mode ^ ")" in
      Alcotest.(check bool) (label ^ " correct") true r.Salam.correct;
      Alcotest.(check string) (label ^ " run_stats") (show want)
        (show (tuple_of_stats r.Salam.stats))

let check_suite tag workloads =
  List.iter (fun mode -> List.iter (check_workload tag mode) workloads) modes

let test_quick_suite () = check_suite "quick" (Salam_workloads.Suite.quick ())

let test_standard_suite () = check_suite "standard" (Salam_workloads.Suite.standard ())

(* simulate_jobs must agree with sequential simulate exactly, whatever
   the worker count — results only travel through per-job state. *)
let test_batch_matches_sequential () =
  let suite = Salam_workloads.Suite.quick () in
  let jobs = List.map (Salam.job Salam.Config.default) suite in
  let batch = Salam.simulate_jobs ~domains:4 jobs in
  List.iter2
    (fun (w : W.t) r ->
      let key = "quick/" ^ w.W.name in
      let want = List.assoc key expected in
      Alcotest.(check string) (key ^ " batch run_stats") (show want)
        (show (tuple_of_stats r.Salam.stats)))
    suite batch

(* Tracing and check mode must be pure observation: running with a sink
   installed, or with the engine's invariant checker on (as every
   differential oracle runs), may not perturb a single cycle or stall of
   any workload. The quick suite re-runs both ways and must reproduce
   the expected table bit for bit. *)
let test_traced_matches_untraced () =
  let checked =
    {
      Salam.Config.default with
      Salam.Config.engine = { Engine.default_config with Engine.check = true };
    }
  in
  List.iter
    (fun (w : W.t) ->
      let key = "quick/" ^ w.W.name in
      let want = List.assoc key expected in
      let sink = Salam_obs.Trace.create () in
      let r = Salam.simulate ~trace:sink w in
      Alcotest.(check bool) (key ^ " traced correct") true r.Salam.correct;
      Alcotest.(check string) (key ^ " traced run_stats") (show want)
        (show (tuple_of_stats r.Salam.stats));
      Alcotest.(check bool) (key ^ " sink saw events") true
        (Salam_obs.Trace.count sink > 0);
      let r = Salam.simulate ~config:checked w in
      Alcotest.(check bool) (key ^ " checked correct") true r.Salam.correct;
      Alcotest.(check string) (key ^ " checked run_stats") (show want)
        (show (tuple_of_stats r.Salam.stats)))
    (Salam_workloads.Suite.quick ())

(* Unchecked engines sleep through the ticks they can prove quiet;
   check mode keeps every tick real (and asserts, tick by tick, that
   each one an unchecked engine would have slept through is quiet). The
   two must agree on every cycle and statistic: the suites under each
   memory, in both engine modes, with the FU inventory 1:1 and with
   every class capped at one unit, over two invocations (so the second
   starts from the first's state). *)
let test_sleeping_matches_ticking () =
  let memories =
    List.map
      (fun memory ->
        Salam_dse.Point.to_config
          { Salam_dse.Point.default with Salam_dse.Point.memory; cache_bytes = 2048 })
      [ Salam_dse.Point.Spm; Salam_dse.Point.Cache; Salam_dse.Point.Dram ]
  in
  let capped = List.map (fun cls -> (cls, 1)) Salam_hw.Fu.all in
  let configs =
    List.concat_map
      (fun (c : Salam.Config.t) ->
        List.concat_map
          (fun mode ->
            List.map
              (fun fu_limits ->
                { c with Salam.Config.fu_limits; engine = { c.Salam.Config.engine with Engine.mode } })
              [ []; capped ])
          modes)
      memories
  in
  let workloads = Salam_workloads.Suite.quick () @ Salam_workloads.Suite.standard () in
  let pairs = List.concat_map (fun c -> List.map (fun w -> (c, w)) workloads) configs in
  let jobs check =
    List.map
      (fun ((c : Salam.Config.t), w) ->
        Salam.job ~invocations:2
          { c with Salam.Config.engine = { c.Salam.Config.engine with Engine.check } }
          w)
      pairs
  in
  let sleeping = Salam.simulate_jobs (jobs false) and ticking = Salam.simulate_jobs (jobs true) in
  List.iter2
    (fun ((c : Salam.Config.t), (w : W.t)) (a, b) ->
      let label =
        Printf.sprintf "%s %s %s%s" w.W.name
          (Salam.Config.memory_name c)
          (Engine.mode_to_string c.Salam.Config.engine.Engine.mode)
          (if c.Salam.Config.fu_limits = [] then "" else " capped")
      in
      (* a second in-place invocation (fft) need not match the golden
         model, so [correct] is compared, not asserted *)
      Alcotest.(check bool) (label ^ " correct") b.Salam.correct a.Salam.correct;
      Alcotest.(check int64) (label ^ " cycles") b.Salam.cycles a.Salam.cycles;
      Alcotest.(check bool) (label ^ " run_stats") true (a.Salam.stats = b.Salam.stats);
      Alcotest.(check bool) (label ^ " stats tree") true (a.Salam.sim_stats = b.Salam.sim_stats))
    pairs (List.combine sleeping ticking)

let test_parallel_map_order_and_errors () =
  Alcotest.(check (list int))
    "order preserved" [ 1; 4; 9; 16; 25 ]
    (Salam.parallel_map ~domains:3 (fun x -> x * x) [ 1; 2; 3; 4; 5 ]);
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore
        (Salam.parallel_map ~domains:2 (fun x -> if x = 3 then raise Exit else x)
           [ 1; 2; 3; 4 ]))

let suite =
  [
    Alcotest.test_case "quick suite stats vs seed" `Quick test_quick_suite;
    Alcotest.test_case "standard suite stats vs seed" `Slow test_standard_suite;
    Alcotest.test_case "traced run = untraced run" `Quick test_traced_matches_untraced;
    Alcotest.test_case "sleeping engines = ticking engines" `Slow test_sleeping_matches_ticking;
    Alcotest.test_case "simulate_jobs = sequential" `Quick test_batch_matches_sequential;
    Alcotest.test_case "parallel_map order/errors" `Quick test_parallel_map_order_and_errors;
  ]
