open Salam_ir
open Salam_soc
open Salam_frontend.Lang
module Engine = Salam_engine.Engine

type outcome = {
  scenario : string;
  total_us : float;
  correct : bool;
  stage_cycles : (string * int64) list;
  dynamic_instructions : int;
  kernel_events : int;
}

let stages accs =
  List.map
    (fun acc -> (Accelerator.name acc, (Accelerator.stats acc).Engine.cycles))
    accs

let dynamic_instructions accs =
  List.fold_left (fun n acc -> n + (Accelerator.stats acc).Engine.dynamic_instructions) 0 accs

let acc_clock = 500.0

let host_clock = 1200.0

let conv_kernel h w =
  (Salam_workloads.Cnn.conv ~h ~w ~unroll:3 ~pixel_unroll:8 ()).Salam_workloads.Workload.kernel

let relu_kernel h w =
  (Salam_workloads.Cnn.relu ~h ~w ~unroll:4 ()).Salam_workloads.Workload.kernel

let pool_kernel h w = (Salam_workloads.Cnn.pool ~h ~w ()).Salam_workloads.Workload.kernel

(* 2x2 max-pool over a streamed raster input, buffering two rows in a
   private scratchpad *)
let pool_stream_kernel h w =
  kernel (Printf.sprintf "cnn_pool_stream_%dx%d" h w)
    ~params:
      [
        array "ins" Ty.F64 [ h; w ];
        array "rowbuf" Ty.F64 [ 2; w ];
        array "outp" Ty.F64 [ h / 2; w / 2 ];
      ]
    [
      for_ "r" (i 0) (i h)
        [
          for_ "c" (i 0) (i w)
            [ store "rowbuf" [ Binop (Band, v "r", i 1); v "c" ] (idx "ins" [ v "r"; v "c" ]) ];
          if_
            (Binop (Band, v "r", i 1) =: i 1)
            [
              for_ ~unroll:2 "c2" (i 0) (i (w / 2))
                [
                  decl Ty.F64 "a" (idx "rowbuf" [ i 0; v "c2" *: i 2 ]);
                  decl Ty.F64 "b" (idx "rowbuf" [ i 0; (v "c2" *: i 2) +: i 1 ]);
                  decl Ty.F64 "cc" (idx "rowbuf" [ i 1; v "c2" *: i 2 ]);
                  decl Ty.F64 "d" (idx "rowbuf" [ i 1; (v "c2" *: i 2) +: i 1 ]);
                  decl Ty.F64 "m1" (Cond (v "a" >: v "b", v "a", v "b"));
                  decl Ty.F64 "m2" (Cond (v "cc" >: v "d", v "cc", v "d"));
                  store "outp"
                    [ Binop (Shr, v "r", i 1); v "c2" ]
                    (Cond (v "m1" >: v "m2", v "m1", v "m2"));
                ];
            ]
            [];
        ];
    ]

type setup = {
  sys : System.t;
  cluster : Cluster.t;
  host : Host.t;
  dma : Salam_mem.Dma.Block.t;
  input : float array;
  weights : float array;
  dram_input : int64;
  dram_weights : int64;
  dram_output : int64;
  in_bytes : int;
  w_bytes : int;
  out_bytes : int;
}

let make_setup ?trace h w =
  let sys = System.create ?trace () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"cnn" ~clock_mhz:acc_clock ~xbar_width:16 () in
  let host = Host.create sys ~clock_mhz:host_clock ~port:(Fabric.port fabric) in
  let dma =
    Cluster.add_dma cluster
      ~config:{ Salam_mem.Dma.Block.name = "cnn.dma"; burst_bytes = 32; max_in_flight = 2 }
      ()
  in
  let rng = Salam_sim.Rng.create 2020L in
  let hp = h + 2 and wp = w + 2 in
  let input = Array.init (hp * wp) (fun _ -> Salam_sim.Rng.float rng 2.0 -. 1.0) in
  let weights = Array.init 9 (fun _ -> Salam_sim.Rng.float rng 1.0 -. 0.5) in
  let in_bytes = hp * wp * 8 in
  let w_bytes = 9 * 8 in
  let out_bytes = h / 2 * (w / 2) * 8 in
  let dram_input = System.alloc_region sys ~bytes:in_bytes in
  let dram_weights = System.alloc_region sys ~bytes:w_bytes in
  let dram_output = System.alloc_region sys ~bytes:out_bytes in
  Memory.write_f64_array (System.backing sys) dram_input input;
  Memory.write_f64_array (System.backing sys) dram_weights weights;
  {
    sys;
    cluster;
    host;
    dma;
    input;
    weights;
    dram_input;
    dram_weights;
    dram_output;
    in_bytes;
    w_bytes;
    out_bytes;
  }

(* driver costs: the host programs the DMA descriptor (a handful of
   uncached writes) before the transfer, and completion interrupts pay
   an ISR entry/exit before the driver continues *)
let isr_cycles = 80

let host_dma s ~src ~dst ~len k =
  Host.delay_cycles s.host 24 ~k:(fun () ->
      Salam_mem.Dma.Block.start s.dma ~src ~dst ~len ~on_done:(fun () ->
          Host.delay_cycles s.host isr_cycles ~k))

let finish s h w started =
  ignore (System.run s.sys);
  if not !started then failwith "cnn scenario did not complete";
  let out = Memory.read_f64_array (System.backing s.sys) s.dram_output (h / 2 * (w / 2)) in
  let expect = Salam_workloads.Cnn.golden_pipeline ~input:s.input ~weights:s.weights ~h ~w in
  Array.for_all2 (fun a b -> abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float b)) out expect

let mk_acc s name ~engine_config kern =
  let func = Salam_workloads.Workload.compile_kernel kern in
  let acc = Accelerator.create s.sys ~name ~clock_mhz:acc_clock ~engine_config func in
  Cluster.add_accelerator s.cluster acc;
  acc

let spm_ports c = { c with Salam_mem.Spm.read_ports = 32; write_ports = 8; banks = 32 }

let run_kernel s acc args k =
  Host.run_kernel s.host (Accelerator.comm acc) ~args ~k:(fun () ->
      Host.delay_cycles s.host isr_cycles ~k)

(* fire-and-forget launch for self-synchronising accelerators *)
let launch_kernel s acc args =
  Host.write_args s.host (Accelerator.comm acc)
    ~args ~k:(fun () ->
      Host.start_device s.host (Accelerator.comm acc) ~k:(fun () -> ()))

let round_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1024

let run_private_spm ?(h = 32) ?(w = 32) ?island_domains:_ ?(engine_config = Engine.default_config) ?trace
    () =
  let s = make_setup ?trace h w in
  let conv = mk_acc s "conv" ~engine_config (conv_kernel h w) in
  let relu = mk_acc s "relu" ~engine_config (relu_kernel h w) in
  let pool = mk_acc s "pool" ~engine_config (pool_kernel h w) in
  let conv_out_bytes = h * w * 8 in
  let conv_size = round_pow2 (s.in_bytes + 128 + conv_out_bytes) in
  let stage_size = round_pow2 (2 * conv_out_bytes) in
  let conv_spm, _ = Cluster.add_private_spm s.cluster conv ~size:conv_size ~config:spm_ports () in
  let relu_spm, _ = Cluster.add_private_spm s.cluster relu ~size:stage_size ~config:spm_ports () in
  let pool_spm, _ = Cluster.add_private_spm s.cluster pool ~size:stage_size ~config:spm_ports () in
  let conv_in = conv_spm in
  let conv_w = Int64.add conv_spm (Int64.of_int s.in_bytes) in
  let conv_out = Int64.add conv_w 128L in
  let relu_in = relu_spm in
  let relu_out = Int64.add relu_spm (Int64.of_int conv_out_bytes) in
  let pool_in = pool_spm in
  let pool_out = Int64.add pool_spm (Int64.of_int conv_out_bytes) in
  (* accelerators in this model cannot address each other's scratchpads
     (the gem5-Aladdin limitation the paper describes), so intermediate
     tensors bounce through DRAM *)
  let staging = System.alloc_region s.sys ~bytes:conv_out_bytes in
  let bounce ~src ~dst ~len k =
    host_dma s ~src ~dst:staging ~len (fun () -> host_dma s ~src:staging ~dst ~len k)
  in
  let done_ = ref false in
  host_dma s ~src:s.dram_input ~dst:conv_in ~len:s.in_bytes (fun () ->
      host_dma s ~src:s.dram_weights ~dst:conv_w ~len:s.w_bytes (fun () ->
          run_kernel s conv [ conv_in; conv_w; conv_out ] (fun () ->
              bounce ~src:conv_out ~dst:relu_in ~len:conv_out_bytes (fun () ->
                  run_kernel s relu [ relu_in; relu_out ] (fun () ->
                      bounce ~src:relu_out ~dst:pool_in ~len:conv_out_bytes (fun () ->
                          run_kernel s pool [ pool_in; pool_out ] (fun () ->
                              host_dma s ~src:pool_out ~dst:s.dram_output ~len:s.out_bytes
                                (fun () -> done_ := true))))))));
  let correct = finish s h w done_ in
  {
    scenario = "private-spm+dma";
    total_us = System.elapsed_seconds s.sys *. 1e6;
    correct;
    stage_cycles = stages [ conv; relu; pool ];
    dynamic_instructions = dynamic_instructions [ conv; relu; pool ];
    kernel_events = Salam_sim.Kernel.events_executed (System.kernel s.sys);
  }

let run_shared_spm ?(h = 32) ?(w = 32) ?island_domains:_ ?(engine_config = Engine.default_config) ?trace
    () =
  let s = make_setup ?trace h w in
  let conv = mk_acc s "conv" ~engine_config (conv_kernel h w) in
  let relu = mk_acc s "relu" ~engine_config (relu_kernel h w) in
  let pool = mk_acc s "pool" ~engine_config (pool_kernel h w) in
  let base, _ =
    Cluster.add_shared_spm s.cluster
      ~size:(round_pow2 (s.in_bytes + 128 + (3 * h * w * 8) + s.out_bytes))
      ~config:(fun c -> { c with Salam_mem.Spm.read_ports = 32; write_ports = 16; banks = 32 })
      ()
  in
  let conv_out_bytes = h * w * 8 in
  let conv_in = base in
  let conv_w = Int64.add base (Int64.of_int s.in_bytes) in
  let conv_out = Int64.add conv_w 128L in
  let relu_out = Int64.add conv_out (Int64.of_int conv_out_bytes) in
  let pool_out = Int64.add relu_out (Int64.of_int conv_out_bytes) in
  let done_ = ref false in
  host_dma s ~src:s.dram_input ~dst:conv_in ~len:s.in_bytes (fun () ->
      host_dma s ~src:s.dram_weights ~dst:conv_w ~len:s.w_bytes (fun () ->
          run_kernel s conv [ conv_in; conv_w; conv_out ] (fun () ->
              run_kernel s relu [ conv_out; relu_out ] (fun () ->
                  run_kernel s pool [ relu_out; pool_out ] (fun () ->
                      host_dma s ~src:pool_out ~dst:s.dram_output ~len:s.out_bytes (fun () ->
                          done_ := true))))));
  let correct = finish s h w done_ in
  {
    scenario = "shared-spm";
    total_us = System.elapsed_seconds s.sys *. 1e6;
    correct;
    stage_cycles = stages [ conv; relu; pool ];
    dynamic_instructions = dynamic_instructions [ conv; relu; pool ];
    kernel_events = Salam_sim.Kernel.events_executed (System.kernel s.sys);
  }

let run_streams ?(h = 32) ?(w = 32) ?island_domains:_ ?(engine_config = Engine.default_config) ?trace
    () =
  let s = make_setup ?trace h w in
  (* stream windows are registered as ordered device memory when the
     links are created, so FIFO order matches raster order *)
  let conv = mk_acc s "conv" ~engine_config (conv_kernel h w) in
  let relu = mk_acc s "relu" ~engine_config (relu_kernel h w) in
  let pool = mk_acc s "pool" ~engine_config (pool_stream_kernel h w) in
  let conv_spm, _ =
    Cluster.add_private_spm s.cluster conv
      ~size:(round_pow2 (s.in_bytes + 256)) ~config:spm_ports ()
  in
  let pool_spm, _ =
    Cluster.add_private_spm s.cluster pool
      ~size:(round_pow2 ((2 * w * 8) + s.out_bytes)) ~config:spm_ports ()
  in
  let window_bytes = h * w * 8 in
  let c2r_push, c2r_pop, _ =
    Cluster.add_stream_link s.cluster ~window_bytes ~producer:conv ~consumer:relu
      ~capacity_bytes:512 ()
  in
  let r2p_push, r2p_pop, _ =
    Cluster.add_stream_link s.cluster ~window_bytes ~producer:relu ~consumer:pool
      ~capacity_bytes:512 ()
  in
  let conv_in = conv_spm in
  let conv_w = Int64.add conv_spm (Int64.of_int s.in_bytes) in
  let rowbuf = pool_spm in
  let pool_out = Int64.add pool_spm (Int64.of_int (2 * w * 8)) in
  let done_ = ref false in
  host_dma s ~src:s.dram_input ~dst:conv_in ~len:s.in_bytes (fun () ->
      host_dma s ~src:s.dram_weights ~dst:conv_w ~len:s.w_bytes (fun () ->
          (* all three start together and self-synchronise through the
             FIFOs; the host only waits for the last stage *)
          run_kernel s pool [ r2p_pop; rowbuf; pool_out ] (fun () ->
              host_dma s ~src:pool_out ~dst:s.dram_output ~len:s.out_bytes (fun () ->
                  done_ := true));
          launch_kernel s relu [ c2r_pop; r2p_push ];
          launch_kernel s conv [ conv_in; conv_w; c2r_push ]));
  let correct = finish s h w done_ in
  {
    scenario = "stream-buffers";
    total_us = System.elapsed_seconds s.sys *. 1e6;
    correct;
    stage_cycles = stages [ conv; relu; pool ];
    dynamic_instructions = dynamic_instructions [ conv; relu; pool ];
    kernel_events = Salam_sim.Kernel.events_executed (System.kernel s.sys);
  }

let run_all ?(h = 32) ?(w = 32) () =
  [ run_private_spm ~h ~w (); run_shared_spm ~h ~w (); run_streams ~h ~w () ]
