(* Deterministic trace scenarios for the golden-trace regression suite.

   Each scenario builds a small, fully deterministic system, runs it
   under a caller-supplied trace sink and verifies its own functional
   result — a golden trace from a run that computed the wrong answer
   would lock in a bug. The single-accelerator scenarios cover the three
   memory paths (SPM, cache and DMA); the two CNN pipelines cover
   multi-accelerator traffic. *)

open Salam_ir
open Salam_soc
open Salam_frontend
module W = Salam_workloads.Workload
module Trace = Salam_obs.Trace

(* --- tiny vector-add workload ------------------------------------------ *)

let n = 4

(* exact in binary, so results are bit-stable across platforms *)
let a_init = [| 1.0; 2.0; 3.0; 4.0 |]

let b_init = [| 0.5; 0.25; 0.125; 8.0 |]

let vecadd_kernel =
  {
    Lang.kname = "trace_vecadd4";
    ret = Ty.Void;
    params = [ Lang.array "a" Ty.F64 [ n ]; Lang.array "b" Ty.F64 [ n ] ];
    body =
      [
        Lang.For
          {
            Lang.index = "i";
            from_ = Lang.Int_lit 0L;
            to_ = Lang.Int_lit (Int64.of_int n);
            unroll = 1;
            body =
              [
                Lang.Store
                  ( "a",
                    [ Lang.Var "i" ],
                    Lang.Binop
                      ( Lang.Add,
                        Lang.Index ("a", [ Lang.Var "i" ]),
                        Lang.Index ("b", [ Lang.Var "i" ]) ) );
              ];
          };
      ];
  }

let vecadd_workload : W.t =
  {
    W.name = "trace_vecadd4";
    kernel = vecadd_kernel;
    buffers = [ ("a", n * 8); ("b", n * 8) ];
    scalar_args = [];
    init =
      (fun _rng mem bases ->
        Memory.write_f64_array mem bases.(0) a_init;
        Memory.write_f64_array mem bases.(1) b_init);
    check =
      (fun mem bases ->
        let a = Memory.read_f64_array mem bases.(0) n in
        Array.for_all2 (fun got (x, y) -> got = x +. y) a
          (Array.map2 (fun x y -> (x, y)) a_init b_init));
  }

(* [config] with the engine's check mode set to [check] *)
let with_check check config =
  { config with Salam.Config.engine = { config.Salam.Config.engine with Salam_engine.Engine.check } }

let run_vecadd config ~check sink =
  (Salam.simulate ~config:(with_check check config) ~trace:sink vecadd_workload).Salam.correct

(* Same SPM scenario under the built-in database's 5 ns characterization:
   the golden file pins the non-default latencies (and with them the
   whole event stream), so a silent change to the loadable table or the
   profile plumbing fails the trace suite, not just the unit tests. The
   clock stays at the default 500 MHz. *)
let run_vecadd_5ns ~check sink =
  match Salam_config.profile ~node:40 ~cycle_time_ns:5.0 with
  | Ok hw -> run_vecadd { Salam.Config.default with Salam.Config.hw } ~check sink
  | Error e -> failwith ("Check_trace: " ^ e)

(* --- DMA copy through a shared SPM -------------------------------------- *)

(* 160 bytes with a 64-byte burst: two full bursts plus a 32-byte tail,
   exercising the burst-split path. *)
let dma_len = 160

let dma_offset = 512

(* the copy has no engine; in check mode the block engine must also be
   idle once the system has run dry, as an engine must be quiescent *)
let run_dma ~check sink =
  let sys = System.create ~trace:sink () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"dmaT" ~clock_mhz:500.0 () in
  let base, _spm = Cluster.add_shared_spm cluster ~size:1024 () in
  let dma = Cluster.add_dma cluster () in
  let backing = System.backing sys in
  for i = 0 to dma_len - 1 do
    Memory.store_bytes backing
      (Int64.add base (Int64.of_int i))
      (Bytes.make 1 (Char.chr ((i * 7 + 3) land 0xff)))
  done;
  let dst = Int64.add base (Int64.of_int dma_offset) in
  let finished = ref false in
  Salam_mem.Dma.Block.start dma ~src:base ~dst ~len:dma_len ~on_done:(fun () ->
      finished := true);
  ignore (System.run sys);
  !finished
  && ((not check) || not (Salam_mem.Dma.Block.busy dma))
  && (let ok = ref true in
      for i = 0 to dma_len - 1 do
        let at off =
          Bytes.get (Memory.load_bytes backing (Int64.add base (Int64.of_int off)) 1) 0
        in
        if at i <> at (dma_offset + i) then ok := false
      done;
      !ok)

(* --- fast-forwarded vecadd ---------------------------------------------- *)

(* Two invocations with the first covered by a snapshot at the
   roadmark: the traced stream is the post-roadmark epoch only, at the
   same absolute ticks an uninterrupted run would emit — the golden file
   pins both the restore path and the roadmark alignment. The second
   invocation accumulates, so the workload carries its own golden
   model. *)
let vecadd_ff_workload : W.t =
  {
    vecadd_workload with
    W.name = "trace_vecadd4_ff";
    check =
      (fun mem bases ->
        let a = Memory.read_f64_array mem bases.(0) n in
        let ok = ref true in
        Array.iteri
          (fun i got -> if got <> a_init.(i) +. (2.0 *. b_init.(i)) then ok := false)
          a;
        !ok);
  }

let run_ff_vecadd ~check sink =
  let config = with_check check Salam.Config.default in
  let from = Salam.capture ~config ~invocations:1 vecadd_ff_workload in
  let r = Salam.simulate ~config ~invocations:2 ~from ~trace:sink vecadd_ff_workload in
  r.Salam.correct

(* --- multi-accelerator CNN pipelines ------------------------------------- *)

(* The Fig 16 pipelines at the smallest size that still computes the
   golden tensor (2x2 is the smallest with a non-empty pooled output).
   Three accelerators, a host and a DMA engine interleave every tick, so
   together these pin DMA bursts, the cluster crossbar, the MMR/interrupt
   handshake and the stream FIFOs' ready/valid back-pressure. *)
module Cnn_pipeline = Salam_scenarios.Cnn_pipeline

let cnn_size = 2

let engine_config check = (with_check check Salam.Config.default).Salam.Config.engine

let run_cnn_private_spm ~check sink =
  (Cnn_pipeline.run_private_spm ~h:cnn_size ~w:cnn_size ~engine_config:(engine_config check)
     ~trace:sink ())
    .Cnn_pipeline.correct

let run_cnn_streams ~check sink =
  (Cnn_pipeline.run_streams ~h:cnn_size ~w:cnn_size ~engine_config:(engine_config check)
     ~trace:sink ())
    .Cnn_pipeline.correct

(* --- scenario registry --------------------------------------------------- *)

(* name and runner: the runner executes the scenario with the sink
   installed and returns whether the functional result was correct;
   [check] sets the engine's check mode where a scenario turns it on *)
let scenarios =
  [
    ("spm_vecadd", run_vecadd Salam.Config.default);
    ( "cache_vecadd",
      run_vecadd
        {
          Salam.Config.default with
          Salam.Config.memory =
            Salam.Config.Cache { size = 1024; line_bytes = 64; ways = 2; hit_latency = 2 };
        } );
    ("dma_copy", run_dma);
    ("ff_vecadd", run_ff_vecadd);
    ("spm_vecadd_5ns", run_vecadd_5ns);
    ("cnn_private_spm", run_cnn_private_spm);
    ("cnn_streams", run_cnn_streams);
  ]

let names = List.map fst scenarios

let capture ?(sleeping = false) name =
  match List.assoc_opt name scenarios with
  | None -> invalid_arg ("Check_trace.capture: unknown scenario " ^ name)
  | Some run ->
      let sink =
        if sleeping then
          Trace.create
            ~categories:
              (List.filter
                 (fun c -> not (List.mem c Salam_engine.Engine.per_cycle_categories))
                 Trace.all_categories)
            ()
        else Trace.create ()
      in
      if not (run ~check:(not sleeping) sink) then
        failwith ("Check_trace.capture: scenario " ^ name ^ " computed a wrong result");
      Trace.to_text sink
