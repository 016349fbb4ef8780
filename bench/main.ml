(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV), plus an ablation of the engine's design choices
   and the simulator's own speed and allocation gates. Timed gates race
   two paths interleaved in one process; the allocation ledger counts
   exactly. Cross-commit timing lives in the layered ledger under
   benchmark/.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig10 table4 ...   # a subset
   Experiment names: table1 table2 table3 table4 fig4 fig10 fig11 fig12
   fig13 fig14 fig15 fig16 ablation speedup ff ct alloc. An unknown name
   runs nothing and exits 2. *)

(* Engine-mode-pinned configs: the fully dynamic scheduler and the
   schedule-specialization replay. *)
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
   machine-load drift, so CI gates on these ratios. *)
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
     dynamic on short branchy kernels either (gemm16 is covered by the
     speedup floor above) *)
  let violations = ref [] in
  List.iter
    (fun (name, w) ->
      let dmin, cmin = minpair ~rounds:12 w in
      let ratio = cmin /. dmin in
      Printf.printf "%s: compiled/dynamic ratio %.3f (guard <= 1.05)\n" name ratio;
      if ratio > 1.05 then violations := name :: !violations)
    [
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
   engine-mode gate above. The second line rates the interpreter alone:
   one detailed invocation against half of a two-invocation warm-up. *)
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
  Printf.printf "ff_gemm16: cold %.1f ms, fast-forward %.1f ms, speedup %.2fx\n"
    (1000. *. !cmin) (1000. *. !wmin) (!cmin /. !wmin);
  let detailed () =
    let t0 = Unix.gettimeofday () in
    ignore (Salam.simulate ~config gemm16);
    Unix.gettimeofday () -. t0
  in
  let warm_up () =
    let t0 = Unix.gettimeofday () in
    ignore (Salam.warm_up ~config ~invocations:2 gemm16);
    (Unix.gettimeofday () -. t0) /. 2.
  in
  ignore (detailed ());
  ignore (warm_up ());
  let dmin = ref infinity and umin = ref infinity in
  for _ = 1 to 8 do
    dmin := min !dmin (detailed ());
    umin := min !umin (warm_up ())
  done;
  Printf.printf "warm_up_gemm16: detailed %.2f ms, warm-up %.2f ms per invocation, ratio %.2fx\n\n"
    (1000. *. !dmin) (1000. *. !umin) (!dmin /. !umin)

(* Minor-heap words one warm served hit costs, for the Fig 13 GEMM
   point's measurement, in total and per part: the client puts its
   request together; the daemon resolves the line from its connection's
   memo (the request was resolved once before) and puts its reply
   together from the stored line; the client decodes that reply. Socket
   reads and writes are left out. The first time a connection sends a
   request, the daemon decodes it, checks the point (knob ranges and
   hardware profile) and fingerprints it instead: those three parts
   follow, after "first time". A second line gives each part's least
   host time per call; it is printed, not gated. *)
let served_hit_words () =
  let module Measurement = Salam_dse.Measurement in
  let module Point = Salam_dse.Point in
  let module P = Salam_served.Protocol in
  let module Server = Salam_served.Server in
  let w = Exp_dse.gemm_dse_workload () in
  let m =
    Measurement.of_result ~workload:w.Salam_workloads.Workload.name ~point:Point.default
      (Salam.simulate w)
  in
  let line = Measurement.to_line m in
  let target = Exp_dse.gemm_target in
  let request = P.Sim (P.default_spec, m.Measurement.point) in
  (* messages are put together, never sent *)
  let out = P.writer (Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0) in
  let encode () = P.request_to out ~id:7L request in
  let req = P.encode_request ~id:7L request in
  let decode req =
    match P.decode_request req with
    | Ok (_, P.Sim (_, p)) -> p
    | Ok _ | Error _ -> failwith "served hit: request does not decode"
  in
  let check p =
    if Result.is_error (Salam_dse.Explore.check target p) then
      failwith "served hit: the point fails the daemon's check"
  in
  let fingerprint p =
    if Point.fingerprint ~workload:m.Measurement.workload p <> m.Measurement.fp then
      failwith "served hit: the request's point has another fingerprint"
  in
  (* the first time resolves by the full path, each later time from the memo *)
  let memo = Server.memo () in
  let fp =
    match Server.resolve_line memo req 0 (String.length req) with
    | Ok (7L, Server.Sim r) -> r.Server.fp
    | Ok _ | Error _ -> failwith "served hit: the daemon does not resolve the request"
  in
  let recall req =
    match Server.recall memo req 0 (String.length req) with
    | Some { Server.r_id = 7L; fp = fp' } when fp' = fp -> ()
    | Some _ | None -> failwith "served hit: the memo does not hold the request"
  in
  let splice () = P.splice_to out ~id:7L ~served:"hit" line in
  let reply = P.splice ~id:7L ~served:"hit" line in
  let decode_reply reply = P.decode_response reply in
  (match decode_reply reply with
  | Ok (_, `Terminal (P.Result { m = m'; _ })) when m' = m -> ()
  | Ok _ | Error _ -> failwith "served hit: reply does not decode to the measurement");
  (* each part counted on its own, after one uncounted hit *)
  let words f x =
    let w0 = Gc.minor_words () in
    let y = f x in
    (y, Gc.minor_words () -. w0)
  in
  let hit () =
    encode ();
    recall req;
    splice ();
    ignore (decode_reply reply)
  in
  hit ();
  let p = decode req in
  let (), encode_w = words encode () in
  let (), recall_w = words recall req in
  let (), splice_w = words splice () in
  let _, reply_w = words decode_reply reply in
  let _, decode_w = words decode req in
  let (), check_w = words check p in
  let (), fingerprint_w = words fingerprint p in
  let (), total = words hit () in
  Printf.printf
    "served hit: %.0f words (client encode %.0f, daemon memo hit %.0f, splice %.0f, client decode \
     %.0f; first time: daemon decode %.0f, check %.0f, fingerprint %.0f)\n"
    total encode_w recall_w splice_w reply_w decode_w check_w fingerprint_w;
  (* each part's host time: the least of 5 batches, per call *)
  let us f x =
    let calls = 10_000 and best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (f x))
      done;
      best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int calls)
    done;
    1e6 *. !best
  in
  let encode_us = us encode () in
  let recall_us = us recall req in
  let splice_us = us splice () in
  let reply_us = us decode_reply reply in
  let decode_us = us decode req in
  let check_us = us check p in
  let fingerprint_us = us fingerprint p in
  Printf.printf
    "served hit time: %.2f us (client encode %.2f, daemon memo hit %.2f, splice %.2f, client \
     decode %.2f; first time: daemon decode %.2f, check %.2f, fingerprint %.2f)\n"
    (encode_us +. recall_us +. splice_us +. reply_us)
    encode_us recall_us splice_us reply_us decode_us check_us fingerprint_us

(* Minor-heap words of one simulation of [w] with no trace sink, and
   with a sink attached that records no category. The two must be
   equal: every emission site tests [Trace.wants] before it builds its
   payload, so a sink that is off costs what no sink costs. *)
let sink_off_words (w : Salam_workloads.Workload.t) =
  let func = Salam_workloads.Workload.compile w in
  let words trace =
    ignore (Salam.simulate ?trace ~func w);
    let w0 = Gc.minor_words () in
    ignore (Salam.simulate ?trace ~func w);
    Gc.minor_words () -. w0
  in
  let none = words None in
  (none, words (Some (Salam_obs.Trace.create ~categories:[] ())))

(* Minor-heap words of compiling [kernels] afresh through
   [Compile.kernel] (not the per-process cache), and the IR
   instructions they compile to. *)
let frontend_words kernels =
  let w0 = Gc.minor_words () in
  let funcs = List.map Salam_frontend.Compile.kernel kernels in
  let words = Gc.minor_words () -. w0 in
  (List.fold_left (fun acc f -> acc + Salam_ir.Ast.instr_count f) 0 funcs, words)

(* Allocation ledger: minor-heap words and kernel events per dynamic
   instruction of one [Salam.simulate] call (default config, compiled
   engine, SPM) on every standard-suite kernel plus the Fig 13 GEMM
   point; the same for one round of the three Fig 16 CNN integrations
   and for the Fig 13 point on a cache and on DRAM; the bytes of the Fig
   13 point's warm-up snapshot on each memory kind; and the front end's
   words per compiled IR instruction over the suite kernels and the
   three 32x32 CNN stages. All are exact counts, not timings, so they
   do not depend on the machine; CI gates each of them. Each workload
   runs once uncounted first so one-time memoisation stays out of the
   count. *)
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
  (* the memory path beyond the SPM: one round of the three Fig 16
     integrations (DMA, crossbars, shared SPM, stream buffers), and the
     Fig 13 point on a 2 KiB cache and straight to DRAM *)
  let line name ~instr ~words ~events =
    let per x = x /. float_of_int (max 1 instr) in
    Printf.printf "%s: %d dynamic instructions, %.2f words/instr, %.2f events/instr\n" name instr
      (per words) (per (float_of_int events))
  in
  let module C = Salam_scenarios.Cnn_pipeline in
  let cnn_round () = [ C.run_private_spm (); C.run_shared_spm (); C.run_streams () ] in
  ignore (cnn_round ());
  let w0 = Gc.minor_words () in
  let outcomes = cnn_round () in
  let words = Gc.minor_words () -. w0 in
  List.iter (fun (o : C.outcome) -> if not o.C.correct then failwith (o.C.scenario ^ ": wrong result")) outcomes;
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  line "cnn round" ~instr:(sum (fun o -> o.C.dynamic_instructions)) ~words
    ~events:(sum (fun o -> o.C.kernel_events));
  let gemm16 = Exp_dse.gemm_dse_workload () in
  let func = Salam_workloads.Workload.compile gemm16 in
  let config memory = { Salam.Config.default with Salam.Config.memory } in
  let cache = Salam.Config.Cache { size = 2048; line_bytes = 64; ways = 4; hit_latency = 2 } in
  List.iter
    (fun (name, memory) ->
      let config = config memory in
      ignore (Salam.simulate ~config ~func gemm16);
      let w0 = Gc.minor_words () in
      let r = Salam.simulate ~config ~func gemm16 in
      let words = Gc.minor_words () -. w0 in
      if not r.Salam.correct then failwith (name ^ ": wrong result");
      line name ~instr:r.Salam.stats.Salam_engine.Engine.dynamic_instructions ~words
        ~events:r.Salam.kernel_events)
    [ ("fig13 cache", cache); ("fig13 dram", Salam.Config.Dram_direct) ];
  (* what a sweep holds per fast-forward roadmark: the bytes of the Fig 13
     point's memory image after a 2-invocation warm-up *)
  let snapshot_bytes memory =
    let snap = Salam.warm_up ~config:(config memory) ~func ~invocations:2 gemm16 in
    Salam_ir.Memory.snapshot_bytes snap.Salam.snap_image
  in
  Printf.printf "fig13 warm-up snapshot: spm %d, cache %d, dram %d bytes\n"
    (snapshot_bytes Salam.Config.default.Salam.Config.memory)
    (snapshot_bytes cache) (snapshot_bytes Salam.Config.Dram_direct);
  let none, off = sink_off_words gemm16 in
  Printf.printf "sink attached but off: %.0f words, no sink: %.0f words (%s)\n" off none
    gemm16.Salam_workloads.Workload.name;
  served_hit_words ();
  let cnn =
    Salam_workloads.Cnn.
      [
        conv ~h:32 ~w:32 ~unroll:3 ~pixel_unroll:8 ();
        relu ~h:32 ~w:32 ~unroll:4 ();
        pool ~h:32 ~w:32 ();
      ]
  in
  let instrs, words =
    frontend_words
      (List.map
         (fun (w : Salam_workloads.Workload.t) -> w.Salam_workloads.Workload.kernel)
         (workloads @ cnn))
  in
  Printf.printf "frontend: %d IR instructions, %.0f words/instr\n\n" instrs
    (words /. float_of_int (max 1 instrs))

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
    ("speedup", speedup);
    ("ff", ff_speedup);
    ("alloc", alloc);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) when names <> [ "all" ] -> names
    | _ -> List.map fst experiments
  in
  (match List.filter (fun name -> not (List.mem_assoc name experiments)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment %s (available: %s)\n" (String.concat " " unknown)
        (String.concat " " (List.map fst experiments));
      exit 2);
  (* the sweeps' fan-out reads SALAM_DOMAINS: a bad value is refused
     here, before any experiment runs *)
  (match Salam.default_domains () with
  | _ -> ()
  | exception Invalid_argument e ->
      prerr_endline e;
      exit 1);
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) ()) requested;
  (* on stderr: the figures on stdout stay byte-identical run to run *)
  flush stdout;
  Printf.eprintf "[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
