(* Tests for the dynamic runtime engine: semantic equivalence with the
   functional interpreter, conservation invariants, hazard handling,
   and resource constraints. *)

open Salam_ir
module Engine = Salam_engine.Engine
module W = Salam_workloads.Workload

let check = Alcotest.check

(* an ideal memory: every access completes after [latency] cycles *)
let fixed_latency_mem clock backing latency =
  {
    Engine.read =
      (fun ~addr ~ty ~dst ~at ~k ~tag ->
        Memory.load_into backing ty addr dst at;
        Salam_sim.Clock.schedule_cycles clock ~cycles:latency (fun () -> k tag));
    Engine.write =
      (fun ~addr ~ty ~src ~at ~k ~tag ->
        Memory.store_from backing ty addr src at;
        Salam_sim.Clock.schedule_cycles clock ~cycles:latency (fun () -> k tag));
  }

(* run one invocation of [func] on the engine over [backing] *)
let run_func ?(config = Engine.default_config) ?limits ?(mem_latency = 1) ?trace ?profile
    ?(freq_mhz = 1000.0) backing func args =
  let kernel = Salam_sim.Kernel.create () in
  Salam_sim.Kernel.set_trace kernel trace;
  let clock = Salam_sim.Clock.create kernel ~freq_mhz in
  let datapath = Salam_cdfg.Datapath.build ?profile ?limits func in
  let mem = fixed_latency_mem clock backing mem_latency in
  let stats = Salam_sim.Stats.group "engine" in
  let engine = Engine.create kernel clock ~config ~stats ~datapath ~mem () in
  let finished = ref false in
  Engine.start engine ~args ~on_finish:(fun _ -> finished := true);
  ignore (Salam_sim.Kernel.run kernel);
  if not !finished then Alcotest.fail "engine did not finish";
  engine

(* run a workload on the engine with an ideal fixed-latency memory *)
let engine_run ?config ?limits ?mem_latency (w : W.t) =
  let backing = Memory.create ~size:(1 lsl 22) in
  let bases = W.alloc_buffers w backing in
  w.W.init (Salam_sim.Rng.create 42L) backing bases;
  let engine = run_func ?config ?limits ?mem_latency backing (W.compile w) (W.args w ~bases) in
  (Engine.stats engine, w.W.check backing bases)

let test_engine_matches_golden () =
  List.iter
    (fun w ->
      let _, correct = engine_run w in
      check Alcotest.bool ("engine result " ^ w.W.name) true correct)
    (Salam_workloads.Suite.quick ())

(* dynamic instruction count of one interpreter run of [w] on the
   dataset [W.run_functional] uses: one event per executed instruction *)
let dynamic_instructions (w : W.t) =
  let mem = Memory.create ~size:(max (1 lsl 22) (4 * W.total_buffer_bytes w)) in
  let bases = W.alloc_buffers w mem in
  w.W.init (Salam_sim.Rng.create 42L) mem bases;
  let n = ref 0 in
  ignore
    (Interp.run
       ~on_exec:(fun _ -> incr n)
       mem (W.modul w) ~entry:w.W.kernel.Salam_frontend.Lang.kname ~args:(W.args w ~bases));
  !n

let test_engine_instruction_conservation () =
  (* the engine must execute exactly the instructions the interpreter
     executes *)
  List.iter
    (fun w ->
      let interp_count = dynamic_instructions w in
      let stats, _ = engine_run w in
      check Alcotest.int
        ("dynamic instruction count " ^ w.W.name)
        interp_count stats.Engine.dynamic_instructions)
    [ Salam_workloads.Gemm.workload ~n:4 (); Salam_workloads.Nw.workload ~len:8 () ]

let test_engine_load_store_counts () =
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let stats, _ = engine_run w in
  (* gemm n=4: inner loop loads 2 per MAC = 128, stores 16 *)
  check Alcotest.int "loads" 128 stats.Engine.loads_issued;
  check Alcotest.int "stores" 16 stats.Engine.stores_issued

let test_fu_limits_slow_but_stay_correct () =
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let free_stats, ok1 = engine_run w in
  let limits = [ (Salam_hw.Fu.Fp_mul_dp, 1); (Salam_hw.Fu.Fp_add_dp, 1) ] in
  let tight_stats, ok2 = engine_run ~limits w in
  check Alcotest.bool "correct unconstrained" true ok1;
  check Alcotest.bool "correct constrained" true ok2;
  check Alcotest.bool "constraints never speed things up" true
    (Int64.compare tight_stats.Engine.cycles free_stats.Engine.cycles >= 0)

let test_memory_latency_slows_execution () =
  let w = Salam_workloads.Gemm.workload ~n:8 () in
  let fast, _ = engine_run ~mem_latency:1 w in
  let slow, _ = engine_run ~mem_latency:20 w in
  check Alcotest.bool "longer memory latency costs cycles" true
    (Int64.compare slow.Engine.cycles fast.Engine.cycles > 0)

let test_strict_ordering_is_slower () =
  let w = Salam_workloads.Stencil2d.workload ~rows:12 ~cols:12 () in
  let relaxed, ok1 = engine_run w in
  let strict, ok2 =
    engine_run ~config:{ Engine.default_config with Engine.disambiguate_memory = false } w
  in
  check Alcotest.bool "both correct" true (ok1 && ok2);
  check Alcotest.bool "disambiguation never loses" true
    (Int64.compare strict.Engine.cycles relaxed.Engine.cycles >= 0)

let test_stall_accounting_consistent () =
  let w = Salam_workloads.Md_knn.workload ~atoms:16 ~neighbours:8 () in
  let stats, _ = engine_run w in
  check Alcotest.int "issue + stall = active" stats.Engine.active_cycles
    (stats.Engine.issue_cycles + stats.Engine.stall_cycles);
  check Alcotest.int "stall classes sum" stats.Engine.stall_cycles
    (stats.Engine.stall_load_only + stats.Engine.stall_load_compute
   + stats.Engine.stall_load_store_compute + stats.Engine.stall_other);
  check Alcotest.bool "active <= total cycles" true
    (Int64.of_int stats.Engine.active_cycles <= stats.Engine.cycles)

let test_issued_by_class_totals () =
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let stats, _ = engine_run w in
  let by_class = List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Engine.issued_by_class in
  check Alcotest.int "per-class counts cover fp+int" (stats.Engine.issued_fp + stats.Engine.issued_int)
    by_class

let test_engine_restart () =
  let w = Salam_workloads.Nw.workload ~len:8 () in
  let kernel = Salam_sim.Kernel.create () in
  let clock = Salam_sim.Clock.create kernel ~freq_mhz:1000.0 in
  let backing = Memory.create ~size:(1 lsl 20) in
  let bases = W.alloc_buffers w backing in
  let datapath = Salam_cdfg.Datapath.build (W.compile w) in
  let mem = fixed_latency_mem clock backing 1 in
  let stats = Salam_sim.Stats.group "engine" in
  let engine = Engine.create kernel clock ~stats ~datapath ~mem () in
  let run_once () =
    w.W.init (Salam_sim.Rng.create 7L) backing bases;
    let fin = ref false in
    Engine.start engine ~args:(W.args w ~bases) ~on_finish:(fun _ -> fin := true);
    ignore (Salam_sim.Kernel.run kernel);
    check Alcotest.bool "finished" true !fin;
    check Alcotest.bool "correct" true (w.W.check backing bases)
  in
  run_once ();
  run_once ()

(* Stall classification's ordering terms. In both kernels an fdiv feeds,
   through a cast and a gep, the address of the older of two memory ops.
   For the fdiv's whole latency the younger op has every operand but may
   not pass the unresolved address, and nothing issues. A store held by
   an older load is a load stall and a load held by an older store is a
   store stall, so both kernels charge those cycles to
   load+store+compute; without the ordering terms they would be "other"
   and load+compute. Both engine modes must agree, and with [check] on
   every stall cycle is cross-checked against the reservation walk. *)
let ordering_kernels =
  [
    ( "store behind load",
      "define void @st_behind_ld(ptr %buf.0, ptr %q.1, double %x.2, double %y.3) {\n\
       entry:\n\
       \  %a.4 = fdiv double %x.2, %y.3\n\
       \  %i.5 = fptosi double %a.4 to i64\n\
       \  %p.6 = gep ptr %buf.0, 8 x i64 %i.5\n\
       \  %v.7 = load double, ptr %p.6\n\
       \  store double %x.2, ptr %q.1\n\
       \  ret void\n\
       }" );
    ( "load behind store",
      "define void @ld_behind_st(ptr %buf.0, ptr %q.1, double %x.2, double %y.3) {\n\
       entry:\n\
       \  %a.4 = fdiv double %x.2, %y.3\n\
       \  %i.5 = fptosi double %a.4 to i64\n\
       \  %p.6 = gep ptr %buf.0, 8 x i64 %i.5\n\
       \  store double %x.2, ptr %p.6\n\
       \  %v.7 = load double, ptr %q.1\n\
       \  ret void\n\
       }" );
  ]

let test_stall_ordering_terms () =
  List.iter
    (fun (name, src) ->
      let run mode =
        let backing = Memory.create ~size:4096 in
        let buf = Memory.alloc backing ~bytes:64 ~align:8 in
        let q = Memory.alloc backing ~bytes:8 ~align:8 in
        let config = { Engine.default_config with Engine.mode; check = true } in
        let engine =
          run_func ~config backing (Parser.parse_func src)
            [ Bits.Int buf; Bits.Int q; Bits.Float 6.0; Bits.Float 2.0 ]
        in
        Engine.stats engine
      in
      let dynamic = run Engine.Dynamic and compiled = run Engine.Compiled in
      check Alcotest.bool (name ^ ": modes agree") true (dynamic = compiled);
      let fdiv = (Salam_hw.Profile.spec Salam_hw.Profile.default_40nm Salam_hw.Fu.Fp_div_dp).Salam_hw.Profile.latency in
      check Alcotest.bool
        (Printf.sprintf "%s: %d load+store+compute stall cycles cover the fdiv" name
           dynamic.Engine.stall_load_store_compute)
        true
        (dynamic.Engine.stall_load_store_compute >= fdiv - 1);
      check Alcotest.int (name ^ ": no load+compute stalls") 0 dynamic.Engine.stall_load_compute)
    ordering_kernels

(* WAR release. Each iteration's phi redefines %r.3 while the previous
   iteration's five readers of it (six reads: %e.11 reads it twice) are
   still Waiting. The readers wait on producers of different latencies,
   so they issue out of program order. The next phi has its value early
   and is held only by the WAR hazard, so it must issue in the very
   cycle the last of those older readers issues, never before. Both
   engine modes must produce the same issue schedule. *)
let war_kernel =
  "define void @war_readers(double %x.0, double %y.1) {\n\
   entry:\n\
   \  br label %loop\n\
   loop:\n\
   \  %i.2 = phi i64 [ 0, %entry ], [ %n.13, %loop ]\n\
   \  %r.3 = phi double [ %x.0, %entry ], [ %s.12, %loop ]\n\
   \  %slow.4 = fdiv double %y.1, %x.0\n\
   \  %mid.5 = fmul double %y.1, %x.0\n\
   \  %late.6 = fdiv double %x.0, %y.1\n\
   \  %a.7 = fadd double %r.3, %slow.4\n\
   \  %b.8 = fmul double %r.3, %mid.5\n\
   \  %c.9 = fsub double %r.3, %y.1\n\
   \  %d.10 = fadd double %r.3, %late.6\n\
   \  %e.11 = fmul double %r.3, %r.3\n\
   \  %s.12 = fadd double %c.9, %y.1\n\
   \  %n.13 = add i64 %i.2, 1\n\
   \  %k.14 = icmp slt i64 %n.13, 4\n\
   \  br i1 %k.14, label %loop, label %exit\n\
   exit:\n\
   \  ret void\n\
   }"

let test_war_release () =
  let func = Parser.parse_func war_kernel in
  let loop_len =
    match func.Ast.blocks with
    | _ :: loop :: _ -> List.length loop.Ast.instrs
    | _ -> Alcotest.fail "war kernel lost its loop block"
  in
  (* seq of the [k]-th instruction of loop iteration [j]; the entry
     block's branch is seq 0 *)
  let seq j k = 1 + (j * loop_len) + k in
  let phi_r = 1 and readers = [ 5; 6; 7; 8; 9 ] in
  let issue_ticks mode =
    let sink = Salam_obs.Trace.create ~categories:[ Salam_obs.Trace.Engine_issue ] () in
    let config = { Engine.default_config with Engine.mode; check = true } in
    let engine =
      run_func ~config ~trace:sink (Memory.create ~size:64) func
        [ Bits.Float 3.0; Bits.Float 2.0 ]
    in
    let ticks = Hashtbl.create 64 in
    List.iter
      (fun (ev : Salam_obs.Trace.event) ->
        match List.assoc_opt "seq" ev.Salam_obs.Trace.args with
        | Some (Salam_obs.Trace.I s) ->
            Hashtbl.replace ticks (Int64.to_int s) ev.Salam_obs.Trace.tick
        | Some _ | None -> ())
      (Salam_obs.Trace.events sink);
    (ticks, Engine.stats engine)
  in
  let ticks, stats = issue_ticks Engine.Dynamic in
  let tick_of s =
    match Hashtbl.find_opt ticks s with
    | Some t -> t
    | None -> Alcotest.fail (Printf.sprintf "seq %d never issued" s)
  in
  let out_of_order = ref false in
  for j = 0 to 2 do
    let reader_ticks = List.map (fun k -> tick_of (seq j k)) readers in
    let last = List.fold_left max 0L reader_ticks in
    check Alcotest.int64
      (Printf.sprintf "iteration %d: phi issues when its last older reader does" (j + 1))
      last
      (tick_of (seq (j + 1) phi_r));
    let rec inverted = function
      | a :: (b :: _ as tl) -> Int64.compare b a < 0 || inverted tl
      | [] | [ _ ] -> false
    in
    if inverted reader_ticks then out_of_order := true
  done;
  check Alcotest.bool "readers issue out of program order" true !out_of_order;
  let cticks, cstats = issue_ticks Engine.Compiled in
  check Alcotest.bool "modes agree on stats" true (stats = cstats);
  check Alcotest.bool "modes agree on every issue tick" true
    (Hashtbl.length ticks = Hashtbl.length cticks
    && Hashtbl.fold (fun s t ok -> ok && Hashtbl.find_opt cticks s = Some t) ticks true)

(* Multi-cycle FU ops commit from the engine's completion wheel, one
   bucket per cycle of the longest latency plus one. Each iteration
   issues a loop-carried fdiv (the longest-latency class) next to
   1-cycle integer ops and a pipelined fmul/fadd, so the run spans many
   turns of the wheel with buckets of mixed latency. Every op with
   [lat > 0] must write back exactly [lat] cycles after it executes, in
   both modes, under the default profile and the 5 ns row of the
   hardware database. *)
let wheel_kernel =
  "define void @wheel(double %x.0, double %y.1) {\n\
   entry:\n\
   \  br label %loop\n\
   loop:\n\
   \  %i.2 = phi i64 [ 0, %entry ], [ %n.8, %loop ]\n\
   \  %q.3 = phi double [ %x.0, %entry ], [ %d.4, %loop ]\n\
   \  %d.4 = fdiv double %q.3, %y.1\n\
   \  %m.5 = fmul double %q.3, %y.1\n\
   \  %a.6 = fadd double %m.5, %x.0\n\
   \  %j.7 = mul i64 %i.2, 3\n\
   \  %n.8 = add i64 %i.2, 1\n\
   \  %k.9 = icmp slt i64 %n.8, 12\n\
   \  br i1 %k.9, label %loop, label %exit\n\
   exit:\n\
   \  ret void\n\
   }"

let test_commit_latency_across_wheel_wrap () =
  let module Trace = Salam_obs.Trace in
  let func = Parser.parse_func wheel_kernel in
  let profile_5ns =
    match Salam_config.profile ~node:40 ~cycle_time_ns:5.0 with
    | Ok p -> p
    | Error e -> Alcotest.failf "5ns profile: %s" e
  in
  List.iter
    (fun (pname, profile, freq_mhz) ->
      let dp = Salam_cdfg.Datapath.build ~profile func in
      let longest =
        Array.fold_left
          (fun m n -> max m n.Salam_cdfg.Datapath.latency)
          0 dp.Salam_cdfg.Datapath.nodes
      in
      let fdiv = (Salam_hw.Profile.spec profile Salam_hw.Fu.Fp_div_dp).Salam_hw.Profile.latency in
      check Alcotest.int (pname ^ ": fdiv is the longest latency") longest fdiv;
      List.iter
        (fun mode ->
          let what = Printf.sprintf "%s, %s" pname (Engine.mode_to_string mode) in
          let sink =
            Trace.create ~categories:[ Trace.Engine_execute; Trace.Engine_writeback ] ()
          in
          let config = { Engine.default_config with Engine.mode; check = true } in
          ignore
            (run_func ~config ~trace:sink ~profile ~freq_mhz (Memory.create ~size:64) func
               [ Bits.Float 3.0; Bits.Float 2.0 ]);
          let period = Int64.of_float (Float.round (1e6 /. freq_mhz)) in
          let seq_of (e : Trace.event) =
            match List.assoc_opt "seq" e.Trace.args with
            | Some (Trace.I s) -> s
            | Some _ | None -> Alcotest.failf "%s: event without seq" what
          in
          let wb = Hashtbl.create 256 in
          let events = Trace.events sink in
          List.iter
            (fun (e : Trace.event) ->
              if e.Trace.cat = Trace.Engine_writeback then
                Hashtbl.replace wb (seq_of e) e.Trace.tick)
            events;
          let multi = ref 0 and last = ref 0L in
          List.iter
            (fun (e : Trace.event) ->
              match (e.Trace.cat, List.assoc_opt "lat" e.Trace.args) with
              | Trace.Engine_execute, Some (Trace.I lat) when lat > 0L -> (
                  incr multi;
                  let s = seq_of e in
                  let want = Int64.add e.Trace.tick (Int64.mul lat period) in
                  match Hashtbl.find_opt wb s with
                  | Some got ->
                      if got <> want then
                        Alcotest.failf
                          "%s: seq %Ld (%s, lat %Ld) executed at %Ld, wrote back at %Ld, want %Ld"
                          what s e.Trace.detail lat e.Trace.tick got want;
                      last := max !last got
                  | None -> Alcotest.failf "%s: seq %Ld never wrote back" what s)
              | _ -> ())
            events;
          check Alcotest.bool (what ^ ": multi-cycle ops ran") true (!multi > 12);
          check Alcotest.bool
            (Printf.sprintf "%s: run spans several turns of the %d-bucket wheel" what (longest + 1))
            true
            (Int64.div !last period > Int64.of_int (4 * (longest + 1))))
        [ Engine.Dynamic; Engine.Compiled ])
    [ ("default", Salam_hw.Profile.default_40nm, 1000.0); ("5ns", profile_5ns, 200.0) ]

(* Check mode's end-of-run invariants report an op left on the
   completion wheel. The engine is stopped while its fdiv is in flight,
   so the check must trip; once the run completes it must pass. *)
let test_check_reports_wheel_slot () =
  let func =
    Parser.parse_func
      "define void @stuck(double %x.0, double %y.1) {\n\
       entry:\n\
       \  %a.2 = fdiv double %x.0, %y.1\n\
       \  ret void\n\
       }"
  in
  let kernel = Salam_sim.Kernel.create () in
  let clock = Salam_sim.Clock.create kernel ~freq_mhz:1000.0 in
  let backing = Memory.create ~size:64 in
  let engine =
    Engine.create kernel clock
      ~config:{ Engine.default_config with Engine.check = true }
      ~stats:(Salam_sim.Stats.group "engine")
      ~datapath:(Salam_cdfg.Datapath.build func) ~mem:(fixed_latency_mem clock backing 1) ()
  in
  let finished = ref false in
  Engine.start engine
    ~args:[ Bits.Float 3.0; Bits.Float 2.0 ]
    ~on_finish:(fun _ -> finished := true);
  ignore (Salam_sim.Kernel.run ~max_ticks:2000L kernel);
  check Alcotest.bool "stopped mid-run" false !finished;
  (match Engine.check_completion engine with
  | () -> Alcotest.fail "check passed with an fdiv on the completion wheel"
  | exception Engine.Invariant_violation msg ->
      if not (Test_store_shard.contains msg "1 operations still on the completion wheel") then
        Alcotest.failf "violation does not name the wheel: %s" msg);
  ignore (Salam_sim.Kernel.run kernel);
  check Alcotest.bool "finished" true !finished;
  Engine.check_completion engine

(* A memory that never answers leaves the engine waiting forever. With
   every tick real it would tick forever too; asleep with no wake tick,
   it lets the run end, and the caller sees that it did not finish. *)
let test_stuck_engine_does_not_finish () =
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let backing = Memory.create ~size:(1 lsl 16) in
  let bases = W.alloc_buffers w backing in
  w.W.init (Salam_sim.Rng.create 42L) backing bases;
  let kernel = Salam_sim.Kernel.create () in
  let clock = Salam_sim.Clock.create kernel ~freq_mhz:1000.0 in
  let silent =
    {
      Engine.read = (fun ~addr:_ ~ty:_ ~dst:_ ~at:_ ~k:_ ~tag:_ -> ());
      Engine.write = (fun ~addr:_ ~ty:_ ~src:_ ~at:_ ~k:_ ~tag:_ -> ());
    }
  in
  let engine =
    Engine.create kernel clock ~stats:(Salam_sim.Stats.group "engine")
      ~datapath:(Salam_cdfg.Datapath.build (W.compile w)) ~mem:silent ()
  in
  let finished = ref false in
  Engine.start engine ~args:(W.args w ~bases) ~on_finish:(fun _ -> finished := true);
  ignore (Salam_sim.Kernel.run kernel);
  check Alcotest.bool "did not finish" false !finished;
  check Alcotest.bool "still running, waiting on memory" true (Engine.running engine);
  check Alcotest.bool "asleep, so the kernel is not idle" false (Salam_sim.Kernel.idle kernel)

(* randomized configurations must never change results, only timing *)
let qcheck_engine_correct_under_random_configs =
  QCheck.Test.make ~name:"engine correct under random configs" ~count:25
    QCheck.(quad (int_range 1 8) (int_range 1 4) (int_range 0 4) bool)
    (fun (read_ports, write_ports, fu_cap, disambiguate) ->
      let limits =
        if fu_cap = 0 then []
        else [ (Salam_hw.Fu.Fp_add_dp, fu_cap); (Salam_hw.Fu.Fp_mul_dp, fu_cap) ]
      in
      let config =
        {
          Engine.default_config with
          disambiguate_memory = disambiguate;
          read_queue_depth = 4 * read_ports;
          write_queue_depth = 4 * write_ports;
        }
      in
      let _, ok = engine_run ~config ~limits (Salam_workloads.Gemm.workload ~n:4 ()) in
      let _, ok2 = engine_run ~config ~limits (Salam_workloads.Nw.workload ~len:8 ()) in
      ok && ok2)

(* No FU class issues more ops in one cycle than it has units, though
   one cycle can run several ticks: with no FU limits (a unit per static
   op), and with caps of 1 and 2 on every class and on the FP classes
   only. Counted from the issue trace, in both engine modes, so a
   rewrite of the issue scan cannot change it unseen. Every tick of a
   cycle runs at the cycle's edge, so issue events group by cycle on
   their tick. *)
let test_fu_issue_per_cycle_within_allocation () =
  let module Trace = Salam_obs.Trace in
  let module Fu = Salam_hw.Fu in
  let capped name classes cap =
    (Printf.sprintf "%s at %d" name cap, List.map (fun c -> (c, cap)) classes)
  in
  let fp = List.filter Fu.is_fp Fu.all in
  let limit_sets =
    [ ("1:1", []) ]
    @ List.concat_map (fun cap -> [ capped "every class" Fu.all cap; capped "FP" fp cap ]) [ 1; 2 ]
  in
  let workloads =
    Salam_workloads.Suite.quick () @ [ Salam_workloads.Gemm.workload ~n:16 ~unroll:4 ~junroll:8 () ]
  in
  List.iter
    (fun mode ->
      List.iter
        (fun (caps, limits) ->
          List.iter
            (fun (w : W.t) ->
              let func = W.compile w in
              let units = (Salam_cdfg.Datapath.build ~limits func).Salam_cdfg.Datapath.fu_alloc in
              let units_of cls =
                Fu.Map.fold (fun c n acc -> if Fu.to_string c = cls then n else acc) units 0
              in
              let sink = Trace.create ~categories:[ Trace.Engine_issue ] () in
              let config =
                {
                  Salam.Config.default with
                  Salam.Config.engine = { Engine.default_config with Engine.mode };
                  fu_limits = limits;
                }
              in
              let r = Salam.simulate ~config ~trace:sink ~func w in
              check Alcotest.bool (w.W.name ^ " correct") true r.Salam.correct;
              let issued = Hashtbl.create 4096 in
              List.iter
                (fun (e : Trace.event) ->
                  match List.assoc_opt "fu" e.Trace.args with
                  | Some (Trace.S cls) ->
                      let k = (e.Trace.tick, cls) in
                      Hashtbl.replace issued k
                        (1 + Option.value ~default:0 (Hashtbl.find_opt issued k))
                  | Some _ | None -> ())
                (Trace.events sink);
              check Alcotest.bool (w.W.name ^ " issued compute ops") true
                (Hashtbl.length issued > 0);
              Hashtbl.iter
                (fun (tick, cls) n ->
                  if n > units_of cls then
                    Alcotest.failf "%s (%s, %s): %d %s ops issued at tick %Ld with %d unit(s)"
                      w.W.name (Engine.mode_to_string mode) caps n cls tick (units_of cls))
                issued)
            workloads)
        limit_sets)
    [ Engine.Compiled; Engine.Dynamic ]

(* An unpipelined op issued this cycle holds its unit until commit and
   counts once against its class's cap (model epoch 2): two independent
   fdivs on 2 fp_div_dp units issue together (Sec. III-B: an op issues
   when a unit is free), and on 1 unit the second issues as the first
   commits. Before epoch 2
   [units_in_use] added this cycle's issues to the held units, which
   already counted them, so 2 units issued one op per cycle. *)
let two_fdivs =
  "define void @two_fdivs(double %x.0, double %y.1) {\n\
   entry:\n\
   \  %a.2 = fdiv double %x.0, %y.1\n\
   \  %b.3 = fdiv double %y.1, %x.0\n\
   \  ret void\n\
   }"

let test_unpipelined_issue_counted_once () =
  let module Trace = Salam_obs.Trace in
  let period =
    Salam_sim.Clock.period_ticks
      (Salam_sim.Clock.create (Salam_sim.Kernel.create ()) ~freq_mhz:1000.0)
  in
  List.iter
    (fun mode ->
      List.iter
        (fun (units, gap) ->
          let sink = Trace.create ~categories:[ Trace.Engine_issue ] () in
          let config = { Engine.default_config with Engine.mode; check = true } in
          ignore
            (run_func ~config
               ~limits:[ (Salam_hw.Fu.Fp_div_dp, units) ]
               ~trace:sink (Memory.create ~size:64) (Parser.parse_func two_fdivs)
               [ Bits.Float 3.0; Bits.Float 2.0 ]);
          let fdiv_ticks =
            List.filter_map
              (fun (e : Trace.event) ->
                match List.assoc_opt "fu" e.Trace.args with
                | Some (Trace.S "fp_div_dp") -> Some e.Trace.tick
                | Some _ | None -> None)
              (Trace.events sink)
          in
          match List.sort Int64.compare fdiv_ticks with
          | [ first; second ] ->
              check Alcotest.int64
                (Printf.sprintf "%s: ticks between the two fdivs on %d unit(s)"
                   (Engine.mode_to_string mode) units)
                gap (Int64.sub second first)
          | ticks -> Alcotest.failf "%d fdiv issues, not 2" (List.length ticks))
        [
          (2, 0L);
          (* on one unit the second waits for the first to commit *)
          ( 1,
            Int64.mul period
              (Int64.of_int
                 (Salam_hw.Profile.spec Salam_hw.Profile.default_40nm Salam_hw.Fu.Fp_div_dp)
                   .Salam_hw.Profile.latency) );
        ])
    [ Engine.Compiled; Engine.Dynamic ]

let suite =
  [
    Alcotest.test_case "engine matches golden (quick suite)" `Quick test_engine_matches_golden;
    Alcotest.test_case "instruction conservation" `Quick test_engine_instruction_conservation;
    Alcotest.test_case "load/store counts" `Quick test_engine_load_store_counts;
    Alcotest.test_case "fu limits slow but correct" `Quick test_fu_limits_slow_but_stay_correct;
    Alcotest.test_case "memory latency slows" `Quick test_memory_latency_slows_execution;
    Alcotest.test_case "strict ordering slower" `Quick test_strict_ordering_is_slower;
    Alcotest.test_case "stall accounting" `Quick test_stall_accounting_consistent;
    Alcotest.test_case "stall ordering terms" `Quick test_stall_ordering_terms;
    Alcotest.test_case "WAR writer waits for every older reader" `Quick test_war_release;
    Alcotest.test_case "issued by class totals" `Quick test_issued_by_class_totals;
    Alcotest.test_case "FU issue per cycle within allocation (trace)" `Quick
      test_fu_issue_per_cycle_within_allocation;
    Alcotest.test_case "an unpipelined issue counts once against its cap" `Quick
      test_unpipelined_issue_counted_once;
    Alcotest.test_case "engine restart" `Quick test_engine_restart;
    Alcotest.test_case "commit latency across completion-wheel wrap" `Quick
      test_commit_latency_across_wheel_wrap;
    Alcotest.test_case "check mode reports ops left on the completion wheel" `Quick
      test_check_reports_wheel_slot;
    Alcotest.test_case "stuck engine ends the run unfinished" `Quick
      test_stuck_engine_does_not_finish;
    QCheck_alcotest.to_alcotest qcheck_engine_correct_under_random_configs;
  ]
