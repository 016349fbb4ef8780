(* Layer probes: fresh calls into each layer's public entry points, on
   the inputs of the workload being measured, timed from outside. They
   run after the timed part of a traced run and give the per-layer
   numbers; end-to-end numbers never come from here. *)

module W = Salam_workloads.Workload
module Measurement = Salam_dse.Measurement
module Point = Salam_dse.Point
module Store_shard = Salam_dse.Store_shard
module Protocol = Salam_served.Protocol

type kernel = { w : W.t; config : Salam.Config.t }

let ms s = s *. 1e3

(* Median per-call time of [f] over [reps] batches, each batch long
   enough (at least 2 ms) to sit well above the clock's resolution. *)
let per_call ~reps f =
  let batch k = snd (Stat.time (fun () -> for _ = 1 to k do f () done)) in
  let rec calibrate k = if k >= 1 lsl 20 || batch k >= 0.002 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  Stat.median (List.init reps (fun _ -> batch k /. float_of_int k))

type pass = {
  compile_s : float;
  elaborate_s : float;
  schedule_s : float;
  simulate_s : float;
  warm_up_s : float;
  result : Salam.result;
  words : float;
}

let timed_span sp name f = Stat.time (fun () -> Span.span sp name (fun _ -> f ()))

(* One fresh pass of a kernel through frontend, elaboration, schedule
   pre-pass, full simulation and functional warm-up. *)
let pass sp { w; config } =
  let timed name f = timed_span sp name f in
  let func, compile_s =
    timed "frontend.compile" (fun () -> Salam_frontend.Compile.kernel w.W.kernel)
  in
  let dp, elaborate_s =
    timed "cdfg.elaborate" (fun () ->
        Salam_cdfg.Datapath.build ~profile:config.Salam.Config.hw
          ~limits:config.Salam.Config.fu_limits func)
  in
  let _, schedule_s = timed "engine.schedule" (fun () -> Salam_engine.Schedule.compile dp) in
  let (result, words), simulate_s =
    timed "core.simulate" (fun () -> Stat.allocated (fun () -> Salam.simulate ~config ~func w))
  in
  let _, warm_up_s =
    timed "ir.warm_up" (fun () -> Salam.warm_up ~config ~func ~invocations:1 w)
  in
  { compile_s; elaborate_s; schedule_s; simulate_s; warm_up_s; result; words }

(* Per-kernel medians over the passes, plus the exact counts. *)
type row = {
  compile : float;
  elaborate : float;
  schedule : float;
  simulate : float;
  run : float;
  warm_up : float;
  cycles : float;
  dyn_instr : float;
  alloc_words : float;
}

(* Per kernel, the median of [reps] passes; the catalogue metrics sum
   the medians over the workload's distinct kernels. [core.run_ms] is
   what simulate spends beyond elaboration and the schedule pre-pass:
   engine issue loop, event kernel and memory devices together, not
   split further from outside. Returns each kernel's last result. *)
let kernels ~parent ~reps ks =
  let rows =
    List.map
      (fun k ->
        let name = k.w.W.name in
        let passes =
          Span.span parent ("probe.kernel:" ^ name) (fun sp -> List.init reps (fun _ -> pass sp k))
        in
        let med f = Stat.median (List.map f passes) in
        let last = List.nth passes (reps - 1) in
        let r = last.result in
        let dyn (r : Salam.result) = r.Salam.stats.Salam_engine.Engine.dynamic_instructions in
        if not (List.for_all (fun p -> p.result.Salam.correct) passes) then
          Report.fail "probe: %s computed a wrong result" name;
        let differs p = p.result.Salam.cycles <> r.Salam.cycles || dyn p.result <> dyn r in
        if List.exists differs passes then
          Report.fail "probe: %s cycles or instruction count differ between passes" name;
        let row =
          {
            compile = med (fun p -> p.compile_s);
            elaborate = med (fun p -> p.elaborate_s);
            schedule = med (fun p -> p.schedule_s);
            simulate = med (fun p -> p.simulate_s);
            run = med (fun p -> p.simulate_s -. p.elaborate_s -. p.schedule_s);
            warm_up = med (fun p -> p.warm_up_s);
            cycles = Int64.to_float r.Salam.cycles;
            dyn_instr = float_of_int (dyn r);
            alloc_words = last.words;
          }
        in
        Report.detail ~n:reps ("frontend.compile_ms." ^ name) "ms" (ms row.compile);
        Report.detail ~n:reps ("core.simulate_ms." ^ name) "ms" (ms row.simulate);
        Report.detail ~n:reps ("core.run_ms." ^ name) "ms" (ms row.run);
        Report.detail ("core.cycles." ^ name) "cycles" row.cycles;
        Report.detail ("core.dyn_instr." ^ name) "count" row.dyn_instr;
        Report.detail ("core.alloc_mwords." ^ name) "Mwords" (row.alloc_words /. 1e6);
        (row, (k, r)))
      ks
  in
  let total f = Stat.sum (List.map (fun (row, _) -> f row) rows) in
  let n = List.length ks * reps in
  Report.metric ~n "frontend.compile_ms" (ms (total (fun r -> r.compile)));
  Report.metric ~n "cdfg.elaborate_ms" (ms (total (fun r -> r.elaborate)));
  Report.metric ~n "engine.schedule_ms" (ms (total (fun r -> r.schedule)));
  Report.metric ~n "core.simulate_ms" (ms (total (fun r -> r.simulate)));
  Report.metric ~n "core.run_ms" (ms (total (fun r -> r.run)));
  Report.metric ~n "ir.warm_up_ms" (ms (total (fun r -> r.warm_up)));
  Report.metric ~n "core.sim_kips"
    (total (fun r -> r.dyn_instr) /. total (fun r -> r.simulate) /. 1e3);
  Report.metric "core.cycles" (total (fun r -> r.cycles));
  Report.metric "core.dyn_instr" (total (fun r -> r.dyn_instr));
  Report.metric "core.alloc_mwords" (total (fun r -> r.alloc_words) /. 1e6);
  List.map snd rows

let measurements_of results =
  List.map
    (fun ({ w; _ }, r) -> Measurement.of_result ~workload:w.W.name ~point:Point.default r)
    results

(* Codec, sharded store, Pareto extraction and wire protocol, each on
   the workload's own measurements. Round trips must be exact. *)
let store ~parent ~reps ms =
  let n = float_of_int (List.length ms) in
  let each f () = List.iter f ms in
  let same a b = compare a b = 0 in
  let lost what (m : Measurement.t) =
    Report.fail "%s: %s did not round-trip" what m.Measurement.workload
  in
  Span.span parent "probe.store" @@ fun sp ->
  let codec =
    Span.span sp "dse.codec" (fun _ ->
        per_call ~reps
          (each (fun m ->
               match Measurement.of_line (Measurement.to_line m) with
               | Ok m' when same m m' -> ()
               | Ok _ | Error _ -> lost "codec" m)))
  in
  Report.metric ~n:reps "dse.codec_us" (codec /. n *. 1e6);
  let add = ref [] and find = ref [] and open_ = ref [] in
  for i = 1 to reps do
    let dir = Proc.tmp (Printf.sprintf "probe-store-%d" i) in
    let s = Store_shard.open_ dir in
    add := snd (timed_span sp "dse.store_add" (each (Store_shard.add s))) :: !add;
    let found m =
      match Store_shard.find s ~fp:m.Measurement.fp with
      | Some m' when same m m' -> ()
      | Some _ | None -> lost "store" m
    in
    find := Span.span sp "dse.store_find" (fun _ -> per_call ~reps:1 (each found)) :: !find;
    Store_shard.close s;
    let s, t = timed_span sp "dse.store_open" (fun () -> Store_shard.open_ dir) in
    open_ := t :: !open_;
    let distinct = List.sort_uniq compare (List.map (fun m -> m.Measurement.fp) ms) in
    if Store_shard.size s <> List.length distinct then
      Report.fail "store: reopened store lost entries";
    Store_shard.close s;
    Proc.rm_rf dir
  done;
  Report.metric ~n:reps "dse.store_add_us" (Stat.median !add /. n *. 1e6);
  Report.metric ~n:reps "dse.store_find_us" (Stat.median !find /. n *. 1e6);
  Report.metric ~n:reps "dse.store_open_ms" (Stat.median !open_ *. 1e3);
  let pareto =
    Span.span sp "dse.pareto" (fun _ ->
        per_call ~reps (fun () -> ignore (Salam_dse.Pareto.partition ms)))
  in
  Report.metric ~n:reps "dse.pareto_us" (pareto *. 1e6);
  let round_trip m =
    let p = m.Measurement.point in
    let req = Protocol.encode_request ~id:7L (Protocol.Sim (Protocol.default_spec, p)) in
    let resp = Protocol.encode_response ~id:7L (Protocol.Result { served = "hit"; m }) in
    match (Protocol.decode_request req, Protocol.decode_response resp) with
    | Ok (7L, Protocol.Sim (_, p')), Ok (7L, `Terminal (Protocol.Result { m = m'; _ }))
      when same p p' && same m m' ->
        ()
    | _ -> lost "protocol" m
  in
  let proto = Span.span sp "served.protocol" (fun _ -> per_call ~reps (each round_trip)) in
  Report.metric ~n:reps "served.protocol_us" (proto /. n *. 1e6)

(* Median seconds of [a] and of [b] over [pairs] runs of each,
   alternating which goes first so drift in machine speed hits both. *)
let interleaved ~pairs a b =
  let ta = ref [] and tb = ref [] in
  for i = 1 to pairs do
    let run f acc = acc := snd (Stat.time f) :: !acc in
    if i mod 2 = 1 then (run a ta; run b tb) else (run b tb; run a ta)
  done;
  (Stat.median !ta, Stat.median !tb)

(* Sequential against [nproc]-wide execution of the same work; the
   ratio comes with both bases, which are also returned. *)
let speedup ~pairs ~what ~seq ~par =
  let s, p = interleaved ~pairs seq par in
  Report.detail ~n:pairs ("par.seq_ms." ^ what) "ms" (ms s);
  Report.detail ~n:pairs ("par.par_ms." ^ what) "ms" (ms p);
  Report.metric ~n:pairs "par.speedup" (s /. p);
  (s, p)
