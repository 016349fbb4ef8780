(* Command-line front end: run any suite workload on a configurable
   system, print the simulation results and, with --trace, write the
   run's event trace or stats.txt.

     dune exec bin/salam_sim.exe -- list
     dune exec bin/salam_sim.exe -- run gemm --ports 8 --clock 500
     dune exec bin/salam_sim.exe -- run stencil2d --memory cache --cache-size 4096
     dune exec bin/salam_sim.exe -- run gemm --invocations 4 --fast-forward 3
     dune exec bin/salam_sim.exe -- run gemm --fu 1 --trace gemm.json --format json
     dune exec bin/salam_sim.exe -- run fft --trace stats.txt --format stats
     dune exec bin/salam_sim.exe -- run nw --memory cache --trace nw.trace \
       --category cache.miss --from-tick 100000

   Exit status: 0 on success, 2 when the simulated output fails the
   workload's golden model, 1 when a knob is out of range, a trace flag
   comes without --trace or the trace file cannot be opened (the
   message names its flag); other argument errors are Cmdliner's. *)

open Cmdliner
module Engine = Salam_engine.Engine
module Trace = Salam_obs.Trace
module Point = Salam_dse.Point
module Explore = Salam_dse.Explore
module W = Salam_workloads.Workload

let workloads () = Salam_workloads.Suite.standard ()

let list_cmd =
  let doc = "List the available workloads." in
  let run () =
    List.iter
      (fun (w : W.t) ->
        Printf.printf "%-24s (%d buffers, %d bytes)\n" w.W.name
          (List.length w.W.buffers)
          (W.total_buffer_bytes w))
      (workloads ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* Bad values are Cmdliner parse errors with a usage message, not ad-hoc
   mid-run exits. *)
let workload_conv =
  let parse s =
    match Salam_workloads.Suite.by_name s with
    | Some w -> Ok w
    | None -> Error (`Msg (Printf.sprintf "unknown workload %s; try `salam_sim list'" s))
  in
  let print ppf (w : W.t) = Format.pp_print_string ppf w.W.name in
  Arg.conv (parse, print)

let memory_conv =
  Arg.enum (List.map (fun k -> (Point.memory_kind_to_string k, k)) [ Point.Spm; Cache; Dram ])

let mode_conv = Arg.enum [ ("dynamic", Engine.Dynamic); ("compiled", Engine.Compiled) ]

let format_conv = Arg.enum [ ("text", `Text); ("json", `Json); ("stats", `Stats) ]

let category_conv =
  Arg.enum (List.map (fun c -> (Trace.category_to_string c, c)) Trace.all_categories)

let run_workload (w : W.t) clock_mhz memory cache_size ports write_ports banks fu_limit mode
    invocations fast_forward hw_db cycle_time trace format categories component from_tick
    to_tick =
  (* the flags that only shape the --trace file *)
  let trace_flags =
    [
      ("--format", format <> None);
      ("--category", categories <> []);
      ("--component", component <> None);
      ("--from-tick", from_tick <> None);
      ("--to-tick", to_tick <> None);
    ]
  in
  match List.find_opt snd trace_flags with
  | Some (flag, _) when trace = None ->
      Printf.eprintf "%s: applies only with --trace FILE\n" flag;
      Ok 1
  | _ ->
  if invocations < 1 then Error (`Msg "--invocations must be at least 1")
  else if
    match fast_forward with Some k -> k < 0 || k >= invocations | None -> false
  then
    Error
      (`Msg
        (Printf.sprintf "--fast-forward must name a roadmark inside the schedule: 0 <= K < %d"
           invocations))
  else begin
    let point =
      {
        Point.default with
        Point.memory;
        read_ports = ports;
        write_ports;
        banks;
        cache_bytes = cache_size;
        fu_limit;
        clock_mhz;
      }
    in
    match Point.with_hw ?db_path:hw_db ?cycle_time_ns:cycle_time point with
    | Error e -> Error (`Msg e)
    | Ok point ->
    (* the range check salam_dse runs, before anything is built *)
    match Explore.suite_target w.W.name with
    | Error e -> Error (`Msg e)
    | Ok target ->
    match Explore.check target point with
    | Error (key, e) ->
        Printf.eprintf "%s: %s\n" (Explore.flag_of_key key) e;
        Ok 1
    | Ok () ->
    (* an unwritable trace path is refused before anything is built *)
    match Option.map open_out trace with
    | exception Sys_error e ->
        Printf.eprintf "--trace: %s\n" e;
        Ok 1
    | out ->
    let format = Option.value format ~default:`Text in
    (* a stats.txt dump reads the statistics tree and records no events *)
    let sink =
      match (out, format) with
      | None, _ | _, `Stats -> None
      | Some _, (`Text | `Json) ->
          Some (Trace.create ?categories:(if categories = [] then None else Some categories) ())
    in
    let config = Point.to_config point in
    let config =
      { config with Salam.Config.engine = { config.Salam.Config.engine with Engine.mode } }
    in
    let from =
      match fast_forward with
      | None -> None
      | Some k ->
          let snap = Salam.warm_up ~config ~invocations:k w in
          Printf.printf "fast-forward        : interpreter to %s, then %d detailed\n"
            (Salam.roadmark_name k) (invocations - k);
          Some snap
    in
    let r = Salam.simulate ~config ?trace:sink ~invocations ?from w in
    let s = r.Salam.stats in
    Printf.printf "workload            : %s\n" r.Salam.name;
    Printf.printf "hw profile          : %s\n" r.Salam.hw.Salam_hw.Profile.profile_name;
    if invocations > 1 then Printf.printf "invocations         : %d\n" invocations;
    Printf.printf "correct             : %b\n" r.Salam.correct;
    Printf.printf "cycles              : %Ld (%.3f us at %.0f MHz)\n" r.Salam.cycles
      (r.Salam.seconds *. 1e6) config.Salam.Config.clock_mhz;
    Printf.printf "dynamic instructions: %d\n" s.Engine.dynamic_instructions;
    Printf.printf "loads / stores      : %d / %d\n" s.Engine.loads_issued s.Engine.stores_issued;
    Printf.printf "stall cycles        : %d of %d active\n" s.Engine.stall_cycles
      s.Engine.active_cycles;
    Printf.printf "total power         : %.3f mW\n" (Salam.total_mw r.Salam.power);
    Printf.printf "memory dyn r/w mW   : %.3f / %.3f\n" r.Salam.power.Salam.dynamic_mem_read_mw
      r.Salam.power.Salam.dynamic_mem_write_mw;
    Printf.printf "area                : %.0f um^2\n" r.Salam.area_um2;
    (match r.Salam.spm_accesses with
    | Some (reads, writes) -> Printf.printf "SPM reads / writes  : %d / %d\n" reads writes
    | None -> ());
    (match r.Salam.cache_hits_misses with
    | Some (h, m) -> Printf.printf "cache hits / misses : %d / %d\n" h m
    | None -> ());
    Option.iter (fun sink -> Printf.printf "trace events        : %d\n" (Trace.count sink)) sink;
    Printf.printf "host wall time      : %.3f s\n" r.Salam.wall_seconds;
    Option.iter
      (fun oc ->
        let filter =
          { Trace.f_comp = component; f_from = from_tick; f_to = to_tick }
        in
        (match (sink, format) with
        | None, _ -> Trace.write_stats_txt oc r.Salam.sim_stats
        | Some sink, `Json -> Trace.write_chrome_json oc (Trace.filtered ~filter sink)
        | Some sink, _ -> Trace.write_text oc ~filter sink);
        close_out oc)
      out;
    (* statistics cover the post-roadmark epoch only; correctness covers
       the whole schedule's final buffers *)
    Ok (if r.Salam.correct then 0 else 2)
  end

let run_cmd =
  let doc = "Simulate one workload end to end." in
  let wname = Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD") in
  let clock =
    Arg.(value & opt float 500.0 & info [ "clock" ] ~docv:"MHZ" ~doc:"Accelerator clock.")
  in
  let memory =
    Arg.(value & opt memory_conv Point.Spm
         & info [ "memory" ] ~docv:"KIND" ~doc:"Memory attachment: $(b,spm), $(b,cache) or \
                                               $(b,dram).")
  in
  let cache_size =
    Arg.(value & opt int 4096 & info [ "cache-size" ] ~docv:"BYTES" ~doc:"Cache capacity.")
  in
  let ports =
    Arg.(value & opt int 2 & info [ "ports" ] ~docv:"N" ~doc:"SPM read ports.")
  in
  let write_ports =
    Arg.(value & opt int 1 & info [ "write-ports" ] ~docv:"N" ~doc:"SPM write ports.")
  in
  let banks = Arg.(value & opt int 4 & info [ "banks" ] ~docv:"N" ~doc:"SPM banks.") in
  let fu =
    Arg.(
      value & opt int 0
      & info [ "fu" ] ~docv:"N" ~doc:"Cap double-precision FADD/FMUL units (0 = 1:1 map).")
  in
  let engine_mode =
    Arg.(
      value & opt mode_conv Engine.default_config.Engine.mode
      & info [ "engine-mode" ] ~docv:"MODE"
          ~doc:
            "Engine scheduling implementation: $(b,compiled) replays the \
             schedule-specialization pre-pass, $(b,dynamic) derives every decision at run \
             time. Results are bit-identical.")
  in
  let invocations =
    Arg.(
      value & opt int 1
      & info [ "invocations" ] ~docv:"N"
          ~doc:"Run the kernel $(docv) times back-to-back on the same buffers.")
  in
  let fast_forward =
    Arg.(
      value & opt (some int) None
      & info [ "fast-forward" ] ~docv:"K"
          ~doc:
            "Reach the roadmark after invocation $(docv) through the functional interpreter \
             (5-19x faster per invocation than detailed simulation), snapshot, and run only \
             the remaining invocations in the detailed engine. Statistics then cover the \
             post-roadmark epoch; results are bit-identical to an uninterrupted detailed \
             run.")
  in
  let hw_db =
    Arg.(
      value & opt (some file) None
      & info [ "hw-db" ] ~docv:"FILE"
          ~doc:
            "Load the hardware characterization from a salam_config database instead of \
             the compiled-in 40 nm constants (its 2 ns row unless --cycle-time names \
             another).")
  in
  let cycle_time =
    Arg.(
      value & opt (some float) None
      & info [ "cycle-time" ] ~docv:"NS"
          ~doc:
            "Characterized cycle time to elaborate under. Must be declared in the \
             database; also pins the clock to the matching frequency, overriding \
             $(b,--clock).")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the run's trace to $(docv), opened before anything is simulated. With \
             $(b,--fast-forward) it covers the detailed epoch after the roadmark.")
  in
  let format =
    Arg.(
      value & opt (some format_conv) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Trace format: canonical $(b,text) (the default), Chrome trace-event $(b,json), \
             or a gem5-style stats.txt of the whole statistics tree ($(b,stats)), which \
             records no events.")
  in
  let categories =
    Arg.(
      value & opt_all category_conv []
      & info [ "category" ] ~docv:"CAT"
          ~doc:"Record only this category (repeatable), e.g. cache.miss, engine.issue.")
  in
  let component =
    Arg.(
      value & opt (some string) None
      & info [ "component" ] ~docv:"SUBSTR"
          ~doc:"Keep only events whose component name contains $(docv).")
  in
  let from_tick =
    Arg.(
      value & opt (some int64) None
      & info [ "from-tick" ] ~docv:"TICK" ~doc:"Drop events before $(docv).")
  in
  let to_tick =
    Arg.(
      value & opt (some int64) None
      & info [ "to-tick" ] ~docv:"TICK" ~doc:"Drop events after $(docv).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      term_result
        (const run_workload $ wname $ clock $ memory $ cache_size $ ports $ write_ports
       $ banks $ fu $ engine_mode $ invocations $ fast_forward $ hw_db $ cycle_time $ trace
       $ format $ categories $ component $ from_tick $ to_tick))

let () =
  let doc = "gem5-SALAM reproduction: LLVM-based accelerator simulation" in
  let info = Cmd.info "salam_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ list_cmd; run_cmd ]))
