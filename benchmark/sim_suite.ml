(* sim-suite: one caller, closed loop, [Salam.simulate] in the default
   compiled engine mode with an SPM attachment. A round simulates the
   nine standard MachSuite kernels plus the Fig 13 GEMM point, in an
   order shuffled by the seed; the seed is also the simulation's data
   seed, so the data-dependent kernels (bfs, spmv, md) change with it.
   This is the per-point cost every salam_sim run and every DSE point
   pays; DSE, store, socket, islands and interpreter are bypassed. *)

module W = Salam_workloads.Workload

let workloads (ctx : Run.ctx) =
  let open Salam_workloads in
  if ctx.Run.quick then Suite.quick () @ [ Gemm.workload ~n:8 ~unroll:8 ~junroll:4 () ]
  else Suite.standard () @ [ Gemm.workload ~n:16 ~unroll:16 ~junroll:8 () ]

let dyn (r : Salam.result) = r.Salam.stats.Salam_engine.Engine.dynamic_instructions

let run (ctx : Run.ctx) =
  let config = { Salam.Config.default with Salam.Config.seed = Int64.of_int ctx.Run.seed } in
  let simulate (w, func) = Salam.simulate ~config ~func w in
  (* set-up: compile every kernel afresh (not through the memoised
     cache), then one untimed round that fixes each kernel's reference
     cycle and instruction counts *)
  let compiled, reference =
    Run.setup ctx (fun _ ->
        let compiled =
          List.map (fun (w : W.t) -> (w, Salam_frontend.Compile.kernel w.W.kernel)) (workloads ctx)
        in
        (compiled, List.map (fun ((w : W.t), f) -> (w.W.name, simulate (w, f))) compiled))
  in
  List.iter
    (fun (name, (r : Salam.result)) ->
      if not r.Salam.correct then
        Report.fail "sim-suite: %s computed a wrong result in set-up" name)
    reference;
  let expected =
    List.mapi
      (fun i (name, (r : Salam.result)) ->
        let cycles = if ctx.Run.plant && i = 0 then Int64.succ r.Salam.cycles else r.Salam.cycles in
        (name, (cycles, dyn r)))
      reference
  in
  let items = List.map (fun ((w : W.t), func) -> (w.W.name, (w, func))) compiled in
  let ops, round_p10 =
    Run.rounds ctx
      ~n:(Run.count ctx ~full:24 ~quick:2)
      ~workload:"sim-suite" ~span:(fun _ -> "core.simulate") ~detail:"round.kernel_ms" items
      (fun name k ->
        let r = simulate k in
        let cycles, instrs = List.assoc name expected in
        if not r.Salam.correct then Report.fail "sim-suite: %s computed a wrong result" name;
        if r.Salam.cycles <> cycles || dyn r <> instrs then
          Report.fail "sim-suite: %s took %Ld cycles / %d instructions, expected %Ld / %d" name
            r.Salam.cycles (dyn r) cycles instrs)
  in
  let rounds = List.length (Run.untraced ops) in
  Run.end_to_end ~ops ~latency_s:round_p10
    ~items:(float_of_int (rounds * List.length items))
    ~rss_mb:(Run.self_rss_mb ()) ();
  if ctx.Run.trace then begin
    Run.trace_summary ~workload:"sim-suite" ~ops (Span.all ());
    Span.root true "probe" (fun sp ->
        let reps = Run.probe_reps ctx in
        let results =
          Probe.kernels ~parent:sp ~reps
            (List.map (fun (w, _) -> { Probe.w; config }) compiled)
        in
        Probe.store ~parent:sp ~reps (Probe.measurements_of results))
  end
