(* soc-pipeline: rounds of the three Fig 16 CNN integrations (private
   SPMs with DMA, shared SPM, stream buffers), islands on at [nproc]
   domains, scenario order shuffled by the seed. The only
   multi-accelerator traffic: DMA, crossbar, stream buffers, the comm
   interface and island record/replay. Every island-parallel outcome
   must equal the sequential reference exactly. *)

module C = Salam_scenarios.Cnn_pipeline

let size (ctx : Run.ctx) = if ctx.Run.quick then 8 else 32

let scenarios ctx =
  let h = size ctx and w = size ctx in
  [
    ("private_spm", fun island_domains -> C.run_private_spm ~h ~w ~island_domains ());
    ("shared_spm", fun island_domains -> C.run_shared_spm ~h ~w ~island_domains ());
    ("streams", fun island_domains -> C.run_streams ~h ~w ~island_domains ());
  ]

let run (ctx : Run.ctx) =
  let scenarios = scenarios ctx in
  let nproc = ctx.Run.nproc in
  (* set-up: the sequential reference run plus one untimed island round *)
  let reference =
    Run.setup ctx (fun _ ->
        let reference = List.map (fun (name, run) -> (name, run 1)) scenarios in
        List.iter (fun (_, run) -> ignore (run nproc)) scenarios;
        reference)
  in
  List.iter
    (fun (name, (o : C.outcome)) ->
      if not o.C.correct then Report.fail "soc-pipeline: %s reference run is wrong" name)
    reference;
  let expected =
    List.mapi
      (fun i (name, (o : C.outcome)) ->
        (name, if ctx.Run.plant && i = 0 then { o with C.total_us = o.C.total_us +. 1. } else o))
      reference
  in
  let ops, round_p10 =
    Run.rounds ctx
      ~n:(Run.count ctx ~full:40 ~quick:2)
      ~workload:"soc-pipeline" ~span:(( ^ ) "soc.") ~detail:"soc.run_ms" scenarios
      (fun name run ->
        if compare (run nproc) (List.assoc name expected) <> 0 then
          Report.fail "soc-pipeline: %s at %d domains differs from the sequential reference" name
            nproc)
  in
  let times = Run.untraced ops in
  let rounds = List.length times in
  Run.end_to_end ~ops ~latency_s:round_p10
    ~items:(float_of_int (rounds * List.length scenarios))
    ~rss_mb:(Run.self_rss_mb ()) ();
  let q = Stat.tail_quantile rounds in
  Report.detail ~n:rounds ("round_ms_" ^ Stat.percentile_name q) "ms"
    (Stat.quantile q times *. 1e3);
  if ctx.Run.trace then begin
    Run.trace_summary ~workload:"soc-pipeline" ~ops (Span.all ());
    Span.root true "probe" (fun sp ->
        let reps = Run.probe_reps ctx in
        let h = size ctx and w = size ctx in
        let stages =
          Salam_workloads.Cnn.
            [ conv ~h ~w ~unroll:3 ~pixel_unroll:8 (); relu ~h ~w ~unroll:4 (); pool ~h ~w () ]
        in
        let results =
          Probe.kernels ~parent:sp ~reps
            (List.map (fun w -> { Probe.w; config = Salam.Config.default }) stages)
        in
        Probe.store ~parent:sp ~reps (Probe.measurements_of results);
        Report.metric "soc.sim_us"
          (Stat.sum (List.map (fun (_, (o : C.outcome)) -> o.C.total_us) reference));
        let (), words =
          Stat.allocated (fun () -> List.iter (fun (_, run) -> ignore (run 1)) scenarios)
        in
        Report.metric "soc.alloc_mwords" (words /. 1e6);
        let round domains () = List.iter (fun (_, run) -> ignore (run domains)) scenarios in
        Span.span sp "par.islands" (fun _ ->
            ignore
              (Probe.speedup ~pairs:(if ctx.Run.quick then 1 else 3) ~what:"islands" ~seq:(round 1)
                 ~par:(round nproc))))
  end
