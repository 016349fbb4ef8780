(* Tests for the SoC layer: full-system simulation through the public
   Salam API, MMR-triggered starts over the interconnect, host drivers,
   DMA integration and cluster wiring (stream-link windows, shared-SPM
   routing). *)

open Salam_ir
open Salam_soc
module Engine = Salam_engine.Engine
module W = Salam_workloads.Workload

let check = Alcotest.check

let test_simulate_spm_configs () =
  List.iter
    (fun w ->
      let r = Salam.simulate w in
      check Alcotest.bool ("correct " ^ r.Salam.name) true r.Salam.correct;
      check Alcotest.bool "cycles positive" true (Int64.compare r.Salam.cycles 0L > 0))
    (Salam_workloads.Suite.quick ())

let cache_config =
  {
    Salam.Config.default with
    Salam.Config.memory = Salam.Config.Cache { size = 4096; line_bytes = 64; ways = 4; hit_latency = 2 };
  }

let test_simulate_cache_config () =
  let r = Salam.simulate ~config:cache_config (Salam_workloads.Gemm.workload ~n:8 ()) in
  check Alcotest.bool "correct with cache" true r.Salam.correct;
  match r.Salam.cache_hits_misses with
  | Some (hits, misses) ->
      check Alcotest.bool "cache exercised" true (hits > 0 && misses > 0)
  | None -> Alcotest.fail "expected cache statistics"

let test_simulate_spm_access_conservation () =
  let r = Salam.simulate (Salam_workloads.Gemm.workload ~n:8 ()) in
  match r.Salam.spm_accesses with
  | Some (reads, writes) ->
      check Alcotest.int "spm reads = engine loads" r.Salam.stats.Engine.loads_issued reads;
      check Alcotest.int "spm writes = engine stores" r.Salam.stats.Engine.stores_issued writes
  | None -> Alcotest.fail "expected SPM statistics"

let test_simulate_ports_affect_cycles () =
  let w = Salam_workloads.Gemm.workload ~n:8 ~unroll:4 () in
  let at ports =
    let memory = Salam.Config.Spm { read_ports = ports; write_ports = 2; banks = 2; latency = 1 } in
    (Salam.simulate ~config:{ Salam.Config.default with Salam.Config.memory } w).Salam.cycles
  in
  check Alcotest.bool "more ports, no slower" true (Int64.compare (at 8) (at 1) <= 0)

let test_power_breakdown_positive () =
  let w = Salam_workloads.Stencil2d.workload ~rows:12 ~cols:12 () in
  List.iter
    (fun (kind, config) ->
      let p = (Salam.simulate ~config w).Salam.power in
      check Alcotest.bool (kind ^ ": all seven components positive") true
        (p.Salam.dynamic_fu_mw > 0.0 && p.Salam.dynamic_reg_mw > 0.0
        && p.Salam.dynamic_mem_read_mw > 0.0
        && p.Salam.dynamic_mem_write_mw > 0.0
        && p.Salam.static_fu_mw > 0.0 && p.Salam.static_reg_mw > 0.0
        && p.Salam.static_mem_mw > 0.0);
      check (Alcotest.float 1e-9) (kind ^ ": total is the sum")
        (p.Salam.dynamic_fu_mw +. p.Salam.dynamic_reg_mw +. p.Salam.dynamic_mem_read_mw
        +. p.Salam.dynamic_mem_write_mw +. p.Salam.static_fu_mw +. p.Salam.static_reg_mw
        +. p.Salam.static_mem_mw)
        (Salam.total_mw p))
    [ ("spm", Salam.Config.default); ("cache", cache_config) ]

(* the full bare-metal flow: host writes argument MMRs and the control
   register over the fabric; the accelerator decodes them, runs, and
   interrupts *)
let test_mmr_start_flow () =
  let w = Salam_workloads.Nw.workload ~len:8 () in
  let func = W.compile w in
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"c" ~clock_mhz:500.0 () in
  let acc = Accelerator.create sys ~name:"nw" ~clock_mhz:500.0 func in
  Cluster.add_accelerator cluster acc;
  let base, _ = Cluster.add_private_spm cluster acc ~size:8192 () in
  let bases =
    let next = ref base in
    Array.of_list
      (List.map
         (fun (_, bytes) ->
           let b = !next in
           next := Int64.add !next (Int64.of_int ((bytes + 63) / 64 * 64));
           b)
         w.W.buffers)
  in
  w.W.init (Salam_sim.Rng.create 42L) (System.backing sys) bases;
  let host = Host.create sys ~clock_mhz:1200.0 ~port:(Fabric.port fabric) in
  let irq_fired = ref false in
  Host.run_kernel host (Accelerator.comm acc)
    ~args:(Array.to_list (Array.map Fun.id bases))
    ~k:(fun () -> irq_fired := true);
  ignore (System.run sys);
  check Alcotest.bool "interrupt received" true !irq_fired;
  check Alcotest.bool "result correct" true (w.W.check (System.backing sys) bases);
  check Alcotest.int64 "status MMR shows done" 2L
    (Comm_interface.read_mmr (Accelerator.comm acc) Comm_interface.Layout.status)

let test_host_memcpy () =
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let host = Host.create sys ~clock_mhz:1000.0 ~port:(Fabric.port fabric) in
  let src = System.alloc_region sys ~bytes:256 in
  let dst = System.alloc_region sys ~bytes:256 in
  let payload = Bytes.init 200 (fun k -> Char.chr ((k * 7) mod 256)) in
  Memory.store_bytes (System.backing sys) src payload;
  let done_ = ref false in
  Host.memcpy host ~dst ~src ~len:200 ~k:(fun () -> done_ := true);
  ignore (System.run sys);
  check Alcotest.bool "done" true !done_;
  check Alcotest.bool "copied" true
    (Bytes.equal payload (Memory.load_bytes (System.backing sys) dst 200))

let test_dma_feeds_accelerator () =
  (* DRAM -> DMA -> private SPM -> kernel: the Table III data path *)
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let func = W.compile w in
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"c" ~clock_mhz:500.0 () in
  let acc = Accelerator.create sys ~name:"gemm" ~clock_mhz:500.0 func in
  Cluster.add_accelerator cluster acc;
  let spm_base, _ = Cluster.add_private_spm cluster acc ~size:4096 () in
  let dma = Cluster.add_dma cluster () in
  let bytes = 4 * 4 * 8 in
  let dram_a = System.alloc_region sys ~bytes in
  let dram_b = System.alloc_region sys ~bytes in
  let a = spm_base in
  let b = Int64.add spm_base (Int64.of_int bytes) in
  let c = Int64.add b (Int64.of_int bytes) in
  let data_a = Array.init 16 (fun k -> float_of_int k) in
  let data_b = Array.init 16 (fun k -> float_of_int (16 - k)) in
  Memory.write_f64_array (System.backing sys) dram_a data_a;
  Memory.write_f64_array (System.backing sys) dram_b data_b;
  let finished = ref false in
  Salam_mem.Dma.Block.start dma ~src:dram_a ~dst:a ~len:bytes ~on_done:(fun () ->
      Salam_mem.Dma.Block.start dma ~src:dram_b ~dst:b ~len:bytes ~on_done:(fun () ->
          Accelerator.launch acc
            ~args:[ Bits.Int a; Bits.Int b; Bits.Int c ]
            ~on_done:(fun _ -> finished := true)));
  ignore (System.run sys);
  check Alcotest.bool "pipeline completed" true !finished;
  let result = Memory.read_f64_array (System.backing sys) c 16 in
  let expect = Salam_workloads.Gemm.golden data_a data_b 4 in
  check Alcotest.bool "dma-fed result correct" true
    (Array.for_all2 (fun x y -> abs_float (x -. y) < 1e-9) result expect)

let test_accelerator_power_report () =
  let r = Salam.simulate (Salam_workloads.Gemm.workload ~n:8 ()) in
  check Alcotest.bool "area includes datapath and memory" true (r.Salam.area_um2 > 0.0);
  check Alcotest.bool "wall time measured" true (r.Salam.wall_seconds > 0.0)

(* Salam.derive against simulation: over the quick suite with random
   caps on integer and FP classes, deriving the capped run from the
   uncapped one either declines or gives the capped simulation's result
   in every field but the host time. The seed is fixed so the draw holds
   both outcomes. *)
let test_derive_matches_simulate () =
  let quick = Array.of_list (Salam_workloads.Suite.quick ()) in
  let uncapped = Array.map (fun w -> lazy (Salam.simulate w)) quick in
  let classes =
    Salam_hw.Fu.
      [
        Int_adder; Int_multiplier; Shifter; Bitwise; Mux; Converter; Fp_add_dp; Fp_mul_dp;
        Fp_div_dp; Fp_add_sp; Fp_mul_sp;
      ]
  in
  let gen =
    QCheck.Gen.(
      pair
        (int_bound (Array.length quick - 1))
        (map (List.filter_map Fun.id)
           (flatten_l
              (List.map
                 (fun cls -> opt (map (fun n -> (cls, n)) (oneofl [ 1; 2; 3; 4; 8; 64 ])))
                 classes))))
  in
  let print (i, limits) =
    Printf.sprintf "%s with %s" quick.(i).W.name
      (String.concat ", "
         (List.map (fun (cls, n) -> Printf.sprintf "%s=%d" (Salam_hw.Fu.to_string cls) n) limits))
  in
  let derived = ref 0 and declined = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 42 |])
    (QCheck.Test.make ~name:"derive of the uncapped run = simulate of the capped one" ~count:100
       (QCheck.make ~print gen) (fun (i, fu_limits) ->
         let config = { Salam.Config.default with Salam.Config.fu_limits } in
         match Salam.derive ~config quick.(i) (Lazy.force uncapped.(i)) with
         | None ->
             incr declined;
             true
         | Some d ->
             incr derived;
             let s = Salam.simulate ~config quick.(i) in
             compare { d with Salam.wall_seconds = 0. } { s with Salam.wall_seconds = 0. } = 0));
  check Alcotest.bool (Printf.sprintf "%d derived" !derived) true (!derived > 0);
  check Alcotest.bool (Printf.sprintf "%d declined" !declined) true (!declined > 0)

(* scalar arguments and return values travel through the MMR encode /
   decode path *)
let test_scalar_args_and_return () =
  let open Salam_frontend.Lang in
  let kern =
    kernel "axpy_scalar" ~ret:Ty.F64
      ~params:[ array "x" Ty.F64 [ 8 ]; scalar "a" Ty.F64; scalar "n" Ty.I32 ]
      [
        decl Ty.F64 "acc" (f 0.0);
        for_ "k" (i 0) (v "n") [ assign "acc" (v "acc" +: (v "a" *: idx "x" [ v "k" ])) ];
        Return (Some (v "acc"));
      ]
  in
  let func = Salam_frontend.Compile.kernel kern in
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"c" ~clock_mhz:500.0 () in
  let acc = Accelerator.create sys ~name:"axpy" ~clock_mhz:500.0 func in
  Cluster.add_accelerator cluster acc;
  let base, _ = Cluster.add_private_spm cluster acc ~size:1024 () in
  let xs = Array.init 8 float_of_int in
  Memory.write_f64_array (System.backing sys) base xs;
  let host = Host.create sys ~clock_mhz:1000.0 ~port:(Fabric.port fabric) in
  let irq = ref false in
  Host.run_kernel host (Accelerator.comm acc)
    ~args:[ base; Int64.bits_of_float 0.5; 8L ]
    ~k:(fun () -> irq := true);
  ignore (System.run sys);
  check Alcotest.bool "irq" true !irq;
  let ret =
    Int64.float_of_bits
      (Comm_interface.read_mmr (Accelerator.comm acc) Comm_interface.Layout.ret_value)
  in
  check (Alcotest.float 1e-9) "0.5 * sum(0..7)" (0.5 *. 28.0) ret

(* --- cluster wiring ----------------------------------------------------- *)

let build_cluster () =
  let func = W.compile (Salam_workloads.Gemm.workload ~n:8 ()) in
  let sys = System.create () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"c" ~clock_mhz:500.0 () in
  let acc name = Accelerator.create sys ~name ~clock_mhz:500.0 func in
  (sys, cluster, acc)

let test_stream_link_ordered_ranges () =
  let _, cluster, acc = build_cluster () in
  let p = acc "producer" and c = acc "consumer" in
  Cluster.add_accelerator cluster p;
  Cluster.add_accelerator cluster c;
  let window = 256 in
  let push_base, pop_base, _buffer =
    Cluster.add_stream_link cluster ~window_bytes:window ~producer:p ~consumer:c
      ~capacity_bytes:1024 ()
  in
  let ordered a addr = Engine.in_ordered_range (Accelerator.engine a) ~addr in
  let inside base = Int64.add base (Int64.of_int (window / 2)) in
  let past base = Int64.add base (Int64.of_int window) in
  (* each endpoint orders exactly its own window: program-order issue is
     what keeps FIFO data in raster order *)
  check Alcotest.bool "producer orders push window" true (ordered p (inside push_base));
  check Alcotest.bool "producer orders full window start" true (ordered p push_base);
  check Alcotest.bool "producer window is half-open" false (ordered p (past push_base));
  check Alcotest.bool "consumer orders pop window" true (ordered c (inside pop_base));
  check Alcotest.bool "producer does not order pop window" false (ordered p (inside pop_base));
  check Alcotest.bool "consumer does not order push window" false (ordered c (inside push_base))

(* a store sent into the local crossbar reaches the shared SPM: the
   routing add_shared_spm sets up, observed end to end *)
let test_shared_spm_routes_via_xbar () =
  let sys, cluster, _acc = build_cluster () in
  let base, spm = Cluster.add_shared_spm cluster ~size:4096 () in
  let completed = ref false in
  Salam_mem.Port.send_fn (Cluster.local_port cluster) Salam_mem.Packet.Write
    ~addr:(Int64.to_int base) ~size:8 (fun () -> completed := true);
  ignore (System.run sys);
  check Alcotest.bool "store completed" true !completed;
  check Alcotest.int "store landed in the shared SPM" 1 (Salam_mem.Spm.writes spm)

(* The energy oracle, which simulate runs in check mode, over the quick
   suite on every memory kind; and a result with one term planted
   missing fails it, naming the term. *)
let test_energy_oracle () =
  let check_mode config =
    { config with Salam.Config.engine = { Engine.default_config with Engine.check = true } }
  in
  let memories =
    [
      ("spm", Salam.Config.default); ("cache", cache_config);
      ("dram", { Salam.Config.default with Salam.Config.memory = Salam.Config.Dram_direct });
    ]
  in
  List.iter
    (fun (kind, config) ->
      List.iter
        (fun w ->
          let r = Salam.simulate ~config:(check_mode config) w in
          Salam.check_energy r;
          if kind <> "dram" then
            check Alcotest.bool
              (Printf.sprintf "%s on %s: both memory dynamic terms positive" w.W.name kind)
              true
              (r.Salam.power.Salam.dynamic_mem_read_mw > 0.0
              && r.Salam.power.Salam.dynamic_mem_write_mw > 0.0))
        (Salam_workloads.Suite.quick ()))
    memories;
  let r = Salam.simulate ~config:cache_config (Salam_workloads.Gemm.workload ~n:8 ()) in
  let planted = { r with Salam.power = { r.Salam.power with Salam.dynamic_mem_write_mw = 0.0 } } in
  match Salam.check_energy planted with
  | () -> Alcotest.fail "a missing dynamic_mem_write_mw passed the energy oracle"
  | exception Engine.Invariant_violation msg ->
      check Alcotest.bool ("the violation names the term: " ^ msg) true
        (String.starts_with ~prefix:"energy oracle: dynamic_mem_write_mw " msg)

let suite =
  [
    Alcotest.test_case "simulate quick suite (SPM)" `Quick test_simulate_spm_configs;
    Alcotest.test_case "simulate with cache" `Quick test_simulate_cache_config;
    Alcotest.test_case "SPM access conservation" `Quick test_simulate_spm_access_conservation;
    Alcotest.test_case "ports affect cycles" `Quick test_simulate_ports_affect_cycles;
    Alcotest.test_case "power breakdown" `Quick test_power_breakdown_positive;
    Alcotest.test_case "MMR start flow" `Quick test_mmr_start_flow;
    Alcotest.test_case "host memcpy" `Quick test_host_memcpy;
    Alcotest.test_case "dma feeds accelerator" `Quick test_dma_feeds_accelerator;
    Alcotest.test_case "power/area report" `Quick test_accelerator_power_report;
    Alcotest.test_case "derive = simulate under caps that never bind" `Quick
      test_derive_matches_simulate;
    Alcotest.test_case "scalar args and return via MMRs" `Quick test_scalar_args_and_return;
    Alcotest.test_case "stream link registers ordered windows" `Quick
      test_stream_link_ordered_ranges;
    Alcotest.test_case "shared SPM reachable through local crossbar" `Quick
      test_shared_spm_routes_via_xbar;
    Alcotest.test_case "energy oracle: quick suite x SPM/cache/DRAM, planted term refused" `Quick
      test_energy_oracle;
  ]
