(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV), plus an ablation of the engine's design choices
   and Bechamel micro-benchmarks of the simulator itself.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig10 table4 ...   # a subset
   Experiment names: table1 table2 table3 table4 fig4 fig10 fig11 fig12
   fig13 fig14 fig15 fig16 ablation micro speedup ff ct alloc *)

(* Engine-mode-pinned configs. The bare engine_* micro entries pin the
   fully dynamic scheduler so their numbers stay comparable with the
   committed baseline; the *_compiled twins run the schedule-
   specialization replay. *)
let with_mode mode =
  {
    Salam.Config.default with
    Salam.Config.engine =
      { Salam_engine.Engine.default_config with Salam_engine.Engine.mode };
  }

let dynamic_config = with_mode Salam_engine.Engine.Dynamic

let compiled_config = with_mode Salam_engine.Engine.Compiled

(* Compiled-vs-dynamic speedup on the Fig 13 gemm16 DSE point, the
   workload that stresses the scheduler hardest. Interleaved min-of-N
   wall timing: alternating the two modes within one process cancels
   machine-load drift that two independent OLS fits cannot, so this —
   not the Bechamel twins — is what CI gates on. *)
let speedup () =
  Bench_util.section "SPEEDUP — compiled vs dynamic engine (gemm16)";
  let gemm16 = Exp_dse.gemm_dse_workload () in
  let time config w =
    let t0 = Unix.gettimeofday () in
    ignore (Salam.simulate ~config w);
    Unix.gettimeofday () -. t0
  in
  let minpair ~rounds w =
    (* warm both paths: kernel compilation is memoised, allocator settles *)
    ignore (time dynamic_config w);
    ignore (time compiled_config w);
    let dmin = ref infinity and cmin = ref infinity in
    for _ = 1 to rounds do
      dmin := min !dmin (time dynamic_config w);
      cmin := min !cmin (time compiled_config w)
    done;
    (!dmin, !cmin)
  in
  let dmin, cmin = minpair ~rounds:12 gemm16 in
  Printf.printf "engine_gemm16: dynamic %.1f ms, compiled %.1f ms, speedup %.2fx\n"
    (1000. *. dmin) (1000. *. cmin) (dmin /. cmin);
  (* regression guard: Compiled mode must never lose meaningfully to
     dynamic — on unrolled winners (gemm16) and on short branchy kernels
     (nw16, bfs) alike *)
  let violations = ref [] in
  List.iter
    (fun (name, w) ->
      let dmin, cmin = minpair ~rounds:12 w in
      let ratio = cmin /. dmin in
      Printf.printf "%s: compiled/dynamic ratio %.3f (guard <= 1.05)\n" name ratio;
      if ratio > 1.05 then violations := name :: !violations)
    [
      ("engine_gemm16_guard", gemm16);
      ("engine_nw16_guard", Salam_workloads.Nw.workload ~len:16 ());
      ("engine_bfs_guard", Salam_workloads.Bfs.workload ());
    ];
  print_newline ();
  if !violations <> [] then begin
    Printf.eprintf "compiled mode slower than 1.05x dynamic on: %s\n"
      (String.concat ", " !violations);
    exit 1
  end

(* Fast-forward warm-start win on the same gemm16 point: an
   uninterrupted 3-invocation detailed run against interpreter warm-up
   to the roadmark after invocation 2 plus the one remaining detailed
   invocation. The two are bit-identical (snapshot oracle); this times
   the wall-clock side of the trade, interleaved min-of-N like the
   engine-mode gate above. *)
let ff_speedup () =
  Bench_util.section "FF — fast-forward warm-start vs cold detailed (gemm16)";
  let gemm16 = Exp_dse.gemm_dse_workload () in
  let config = dynamic_config in
  let invocations = 3 and roadmark = 2 in
  let cold () =
    let t0 = Unix.gettimeofday () in
    ignore (Salam.simulate ~config ~invocations gemm16);
    Unix.gettimeofday () -. t0
  in
  let warm () =
    let t0 = Unix.gettimeofday () in
    let from = Salam.warm_up ~config ~invocations:roadmark gemm16 in
    ignore (Salam.simulate ~config ~invocations ~from gemm16);
    Unix.gettimeofday () -. t0
  in
  ignore (cold ());
  ignore (warm ());
  let cmin = ref infinity and wmin = ref infinity in
  for _ = 1 to 8 do
    cmin := min !cmin (cold ());
    wmin := min !wmin (warm ())
  done;
  Printf.printf "ff_gemm16: cold %.1f ms, fast-forward %.1f ms, speedup %.2fx\n\n"
    (1000. *. !cmin) (1000. *. !wmin) (!cmin /. !wmin)

(* Minor-heap words one warm served hit costs in the codec, for the
   Fig 13 GEMM point's measurement: the client encodes its request, the
   daemon decodes it and splices its reply from the stored line, and the
   client decodes that reply. Socket reads and writes are left out. *)
let served_hit_words () =
  let module Measurement = Salam_dse.Measurement in
  let module P = Salam_served.Protocol in
  let w = Exp_dse.gemm_dse_workload () in
  let m =
    Measurement.of_result ~workload:w.Salam_workloads.Workload.name
      ~point:Salam_dse.Point.default (Salam.simulate w)
  in
  let line = Measurement.to_line m in
  let hit () =
    let req = P.encode_request ~id:7L (P.Sim (P.default_spec, m.Measurement.point)) in
    (match P.decode_request req with
    | Ok (_, P.Sim _) -> ()
    | Ok _ | Error _ -> failwith "served hit: request does not decode");
    match P.decode_response (P.splice ~id:7L ~served:"hit" line) with
    | Ok (_, `Terminal (P.Result { m = m'; _ })) when m' = m -> ()
    | Ok _ | Error _ -> failwith "served hit: reply does not decode to the measurement"
  in
  hit ();
  let w0 = Gc.minor_words () in
  hit ();
  Gc.minor_words () -. w0

(* Allocation ledger: minor-heap words and kernel events per dynamic
   instruction of one [Salam.simulate] call (default config, compiled
   engine, SPM) on every standard-suite kernel plus the Fig 13 GEMM
   point. Both are exact counts, not timings, so they do not depend on
   the machine; CI gates the suite-wide words per instruction. Each
   kernel runs once untimed first so one-time memoisation stays out of
   the count. *)
let alloc () =
  Bench_util.section "ALLOC — minor words and kernel events per dynamic instruction";
  let workloads = Salam_workloads.Suite.standard () @ [ Exp_dse.gemm_dse_workload () ] in
  Printf.printf "%-28s %10s %12s %10s %10s %10s\n" "kernel" "dyn_instr" "minor_words" "words/ins"
    "events" "events/ins";
  let total_words = ref 0.0 and total_instr = ref 0 and total_events = ref 0 in
  List.iter
    (fun (w : Salam_workloads.Workload.t) ->
      let func = Salam_workloads.Workload.compile w in
      ignore (Salam.simulate ~func w);
      let w0 = Gc.minor_words () in
      let r = Salam.simulate ~func w in
      let words = Gc.minor_words () -. w0 in
      if not r.Salam.correct then failwith (w.Salam_workloads.Workload.name ^ ": wrong result");
      let instr = r.Salam.stats.Salam_engine.Engine.dynamic_instructions in
      let per x = x /. float_of_int (max 1 instr) in
      Printf.printf "%-28s %10d %12.0f %10.1f %10d %10.2f\n" r.Salam.name instr words (per words)
        r.Salam.kernel_events
        (per (float_of_int r.Salam.kernel_events));
      total_words := !total_words +. words;
      total_instr := !total_instr + instr;
      total_events := !total_events + r.Salam.kernel_events)
    workloads;
  let per x = x /. float_of_int (max 1 !total_instr) in
  Printf.printf "suite: %d dynamic instructions, %.1f words/instr, %.2f events/instr\n"
    !total_instr (per !total_words)
    (per (float_of_int !total_events));
  Printf.printf "served hit: %.0f words\n\n" (served_hit_words ())

let micro () =
  Bench_util.section "MICRO — simulator throughput (Bechamel)";
  let open Bechamel in
  let gemm = Salam_workloads.Gemm.workload ~n:8 () in
  let gemm16 = Exp_dse.gemm_dse_workload () in
  let nw = Salam_workloads.Nw.workload ~len:16 () in
  let dynamic = dynamic_config in
  let compiled = compiled_config in
  let tests =
    Test.make_grouped ~name:"salam"
      [
        Test.make ~name:"engine_gemm8"
          (Staged.stage (fun () -> ignore (Salam.simulate ~config:dynamic gemm)));
        (* the Fig 13 DSE point: a 16x16 GEMM unrolled 16x8, the largest
           single-block workload — stresses the reservation and wake-up
           structures hardest *)
        Test.make ~name:"engine_gemm16"
          (Staged.stage (fun () -> ignore (Salam.simulate ~config:dynamic gemm16)));
        Test.make ~name:"engine_gemm16_compiled"
          (Staged.stage (fun () -> ignore (Salam.simulate ~config:compiled gemm16)));
        (* fast-forward restore: the one remaining detailed invocation
           of a 3-invocation schedule, forked from a pre-taken
           roadmark-2 snapshot *)
        (let ff_snap = Salam.warm_up ~config:dynamic ~invocations:2 gemm16 in
         Test.make ~name:"engine_gemm16_ff"
           (Staged.stage (fun () ->
                ignore (Salam.simulate ~config:dynamic ~invocations:3 ~from:ff_snap gemm16))));
        Test.make ~name:"engine_nw16"
          (Staged.stage (fun () -> ignore (Salam.simulate ~config:dynamic nw)));
        Test.make ~name:"engine_nw16_compiled"
          (Staged.stage (fun () -> ignore (Salam.simulate ~config:compiled nw)));
        (* the three-accelerator streaming pipeline: DMA, crossbar,
           stream FIFOs and the MMR/interrupt handshake *)
        Test.make ~name:"engine_cnn_pipeline"
          (Staged.stage (fun () ->
               ignore (Salam_scenarios.Cnn_pipeline.run_streams ~h:16 ~w:16 ())));
        (* a whole cold DSE sweep: enumerate a tiny GEMM space, simulate
           it storeless and extract the Pareto front *)
        Test.make ~name:"dse_gemm_front"
          (Staged.stage (fun () -> ignore (Exp_dse.dse_front_cold ())));
        Test.make ~name:"interp_gemm8"
          (Staged.stage (fun () -> ignore (Salam_workloads.Workload.run_functional gemm)));
        Test.make ~name:"compile_gemm8"
          (Staged.stage (fun () ->
               ignore (Salam_frontend.Compile.kernel gemm.Salam_workloads.Workload.kernel)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run";
  let entries = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          Printf.printf "%-28s %16.0f\n" name ns;
          entries := (name, ns) :: !entries
      | _ -> Printf.printf "%-28s %16s\n" name "n/a")
    results;
  Bench_util.update_bench_json
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !entries);
  print_newline ()

let experiments =
  [
    ("table1", Exp_motivation.table1);
    ("table2", Exp_motivation.table2);
    ("fig4", Exp_dse.fig4);
    ("fig10", Exp_validation.fig10);
    ("fig11", Exp_validation.fig11);
    ("fig12", Exp_validation.fig12);
    ("table3", Exp_validation.table3);
    ("table4", Exp_validation.table4);
    ("fig13", Exp_dse.fig13);
    ("fig14", Exp_dse.fig14);
    ("fig15", Exp_dse.fig15);
    ("fig16", Exp_multi.fig16);
    ("ablation", Exp_dse.ablation);
    ("ct", Exp_dse.ct_sweep);
    ("micro", micro);
    ("speedup", speedup);
    ("ff", ff_speedup);
    ("alloc", alloc);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: ([ _ ] as names) when names <> [ "all" ] -> names
    | _ :: (_ :: _ as names) when names <> [ "all" ] -> names
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat " " (List.map fst experiments)))
    requested;
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
