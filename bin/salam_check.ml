(* Differential validation harness CLI.

     dune exec bin/salam_check.exe -- --all
     dune exec bin/salam_check.exe -- --all --suite standard --memory cache
     dune exec bin/salam_check.exe -- --fuzz 500 --seed 7
     dune exec bin/salam_check.exe -- --fuzz 50 --plant-bug   (must find it)

   Exit status: 0 when every check passes, 1 on any divergence,
   invariant violation or fuzz failure. *)

open Cmdliner
module Engine = Salam_engine.Engine
module Point = Salam_dse.Point

type suite = Quick | Standard

let suite_conv = Arg.enum [ ("quick", Quick); ("standard", Standard) ]

let workloads = function
  | Quick -> Salam_workloads.Suite.quick ()
  | Standard -> Salam_workloads.Suite.standard ()

let memory_conv =
  Arg.enum (List.map (fun k -> (Point.memory_kind_to_string k, k)) [ Point.Spm; Cache; Dram ])

let mode_conv = Arg.enum [ ("dynamic", Engine.Dynamic); ("compiled", Engine.Compiled) ]

let run_all ~suite ~config =
  let workloads = workloads suite in
  let reports = Check_oracle.check_all ~config workloads in
  let failed = ref 0 in
  List.iter
    (fun (r : Check_oracle.report) ->
      match r.Check_oracle.r_result with
      | Ok () -> Printf.printf "PASS %s\n" r.Check_oracle.r_workload
      | Error f ->
          incr failed;
          Printf.printf "FAIL %s: %s\n" r.Check_oracle.r_workload
            (Check_oracle.failure_to_string f))
    reports;
  Printf.printf "%d/%d workloads agree (interpreter vs %s engine, invariants on)\n"
    (List.length reports - !failed)
    (List.length reports)
    (Engine.mode_to_string config.Salam.Config.engine.Engine.mode);
  !failed = 0

let run_modes ~suite ~config =
  let workloads = workloads suite in
  let failed = ref 0 in
  List.iter
    (fun (w : Salam_workloads.Workload.t) ->
      match Check_oracle.check_modes ~config w with
      | Ok () -> Printf.printf "PASS %s\n" w.Salam_workloads.Workload.name
      | Error f ->
          incr failed;
          Printf.printf "FAIL %s: %s\n" w.Salam_workloads.Workload.name
            (Check_oracle.failure_to_string f))
    workloads;
  Printf.printf "%d/%d workloads bit-identical (compiled vs dynamic engine)\n"
    (List.length workloads - !failed)
    (List.length workloads);
  !failed = 0

let run_snapshot ~suite ~config =
  let workloads = workloads suite in
  (* one cnn_pipeline stage rides along: convolution exercises the
     fast-forward path on a workload the DSE sweeps care about *)
  let workloads = workloads @ [ Salam_workloads.Cnn.conv () ] in
  let reports = Check_snapshot.check_all ~config workloads in
  let failed = ref 0 in
  List.iter
    (fun (r : Check_snapshot.report) ->
      match r.Check_snapshot.r_result with
      | Ok () -> Printf.printf "PASS %s\n" (Check_snapshot.report_to_string r)
      | Error _ ->
          incr failed;
          Printf.printf "FAIL %s\n" (Check_snapshot.report_to_string r))
    reports;
  Printf.printf "%d/%d fast-forward points bit-identical (snapshot oracle)\n"
    (List.length reports - !failed)
    (List.length reports);
  !failed = 0

let run_fuzz ~count ~config ~seed ~plant_bug =
  let mutate = if plant_bug then Some Check_fuzz.plant_float_bug else None in
  Printf.printf "fuzzing %d kernels (seed %Ld%s)...\n%!" count seed
    (if plant_bug then ", planted float bug" else "");
  let failures = Check_fuzz.run ?mutate ~config ~seed ~count () in
  List.iter
    (fun (f : Check_fuzz.case_failure) ->
      Printf.printf "FAIL case %d: %s\nshrunk kernel:\n%s\n" f.Check_fuzz.cf_case
        (Check_fuzz.failure_kind_to_string f.Check_fuzz.cf_failure)
        (Check_fuzz.kernel_to_string f.Check_fuzz.cf_shrunk);
      match f.Check_fuzz.cf_trace with
      | [] -> ()
      | lines ->
          Printf.printf "last %d trace events of the shrunk reproduction:\n"
            (List.length lines);
          List.iter (fun l -> Printf.printf "  %s\n" l) lines)
    failures;
  if plant_bug then begin
    (* detection run: success means the oracle caught the planted bug *)
    Printf.printf "planted bug detected in %d/%d cases\n" (List.length failures) count;
    failures <> []
  end
  else begin
    Printf.printf "%d/%d cases divergence-free\n" (count - List.length failures) count;
    failures = []
  end

(* Every leg runs the one configuration the flags name, elaborated as a
   design point: --hw-db/--cycle-time select the characterization (and a
   cycle time pins the clock), so the oracles vouch for exactly what
   salam_sim and salam_dse would simulate. *)
let main all modes snapshot fuzz suite memory seed plant_bug mode hw_db cycle_time =
  let fail msg =
    Printf.eprintf "%s\n" msg;
    exit 1
  in
  let point = { Point.default with Point.memory; cache_bytes = 4096 } in
  let point =
    match Point.with_hw ?db_path:hw_db ?cycle_time_ns:cycle_time point with
    | Ok p -> p
    | Error e -> fail e
  in
  let config = { (Point.to_config point) with Salam.Config.seed } in
  if hw_db <> None || cycle_time <> None then
    Printf.printf "hardware profile: %s\n" config.Salam.Config.hw.Salam_hw.Profile.profile_name;
  let ran = ref false in
  let ok = ref true in
  if all then begin
    ran := true;
    let config =
      { config with Salam.Config.engine = { config.Salam.Config.engine with Engine.mode } }
    in
    ok := run_all ~suite ~config && !ok
  end;
  if modes then begin
    ran := true;
    ok := run_modes ~suite ~config && !ok
  end;
  if snapshot then begin
    ran := true;
    ok := run_snapshot ~suite ~config && !ok
  end;
  (match fuzz with
  | Some count when count > 0 ->
      ran := true;
      ok := run_fuzz ~count ~config ~seed ~plant_bug && !ok
  | Some _ | None -> ());
  if not !ran then begin
    Printf.eprintf "nothing to do: pass --all, --modes, --snapshot and/or --fuzz N\n";
    exit 2
  end;
  if not !ok then exit 1

let cmd =
  let all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Run the interpreter-vs-engine oracle on every suite workload.")
  in
  let fuzz =
    Arg.(value & opt (some int) None
         & info [ "fuzz" ] ~docv:"N" ~doc:"Fuzz $(docv) random kernels against the oracle.")
  in
  let suite =
    Arg.(value & opt suite_conv Quick
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Workload suite for --all, --modes and --snapshot: $(b,quick) or \
                   $(b,standard).")
  in
  let memory =
    Arg.(value & opt memory_conv Point.Spm
         & info [ "memory" ] ~docv:"KIND"
             ~doc:"Memory attachment: $(b,spm), $(b,cache) or $(b,dram).")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed for datasets and kernel generation.")
  in
  let plant_bug =
    Arg.(value & flag
         & info [ "plant-bug" ]
             ~doc:"Flip a float op in the engine's copy of each fuzz kernel; succeed only if \
                   the oracle detects it.")
  in
  let modes =
    Arg.(value & flag
         & info [ "modes" ]
             ~doc:"Run the compiled-vs-dynamic engine oracle on every suite workload: both \
                   scheduling implementations must be bit-identical (buffers, statistics, \
                   trace streams).")
  in
  let snapshot =
    Arg.(value & flag
         & info [ "snapshot" ]
             ~doc:"Run the fast-forward snapshot oracle on every suite workload plus a \
                   cnn_pipeline stage: interpreter warm-up, detailed capture and \
                   uninterrupted runs must be bit-identical past the roadmark (memory, \
                   statistics, trace stream), in both engine modes.")
  in
  let engine_mode =
    Arg.(value & opt mode_conv Engine.Compiled
         & info [ "engine-mode" ] ~docv:"MODE"
             ~doc:"Engine scheduling implementation for the --all oracle leg: $(b,dynamic) \
                   or $(b,compiled).")
  in
  let hw_db =
    Arg.(value & opt (some file) None
         & info [ "hw-db" ] ~docv:"FILE"
             ~doc:"Run every leg (--all, --modes, --snapshot, --fuzz) under a \
                   characterization loaded from a salam_config database (its 2 ns row unless \
                   --cycle-time names another).")
  in
  let cycle_time =
    Arg.(value & opt (some float) None
         & info [ "cycle-time" ] ~docv:"NS"
             ~doc:"Characterized cycle time for every leg; must be declared in the database \
                   (the built-in one when --hw-db is omitted). Also pins the clock to the \
                   matching frequency (1000/NS MHz), as salam_sim and salam_dse do.")
  in
  let doc = "differential validation: interpreter-vs-engine oracle, kernel fuzzer" in
  Cmd.v
    (Cmd.info "salam_check" ~version:"1.0.0" ~doc)
    Term.(
      const main $ all $ modes $ snapshot $ fuzz $ suite $ memory $ seed
      $ plant_bug $ engine_mode $ hw_db $ cycle_time)

let () = exit (Cmd.eval cmd)
