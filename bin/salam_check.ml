(* Differential validation harness CLI.

     dune exec bin/salam_check.exe -- --all
     dune exec bin/salam_check.exe -- --all --suite standard --memory cache
     dune exec bin/salam_check.exe -- --fuzz 500 --seed 7
     dune exec bin/salam_check.exe -- --fuzz 50 --plant-bug   (must find it)

   Exit status: 0 when every check passes, 1 on any divergence,
   invariant violation or fuzz failure. *)

open Cmdliner

let memory_of_string = function
  | "spm" -> Ok Check_harness.Spm
  | "cache" -> Ok (Check_harness.Cache { size = 4096; ways = 4 })
  | "dram" -> Ok Check_harness.Dram
  | other -> Error (Printf.sprintf "unknown memory kind %s (spm|cache|dram)" other)

let run_all ~suite ~memory_kind ~seed ~mode ?profile () =
  let workloads =
    match suite with
    | "quick" -> Salam_workloads.Suite.quick ()
    | "standard" -> Salam_workloads.Suite.standard ()
    | other ->
        Printf.eprintf "unknown suite %s (quick|standard)\n" other;
        exit 1
  in
  let reports = Check_oracle.check_all ~memory_kind ~seed ~mode ?profile workloads in
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
    (Salam_engine.Engine.mode_to_string mode);
  !failed = 0

let run_modes ~suite ~memory_kind ~seed ?profile () =
  let workloads =
    match suite with
    | "quick" -> Salam_workloads.Suite.quick ()
    | "standard" -> Salam_workloads.Suite.standard ()
    | other ->
        Printf.eprintf "unknown suite %s (quick|standard)\n" other;
        exit 1
  in
  let failed = ref 0 in
  List.iter
    (fun (w : Salam_workloads.Workload.t) ->
      match Check_oracle.check_modes ~memory_kind ~seed ?profile w with
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

let run_snapshot ~suite ~memory_kind =
  let workloads =
    match suite with
    | "quick" -> Salam_workloads.Suite.quick ()
    | "standard" -> Salam_workloads.Suite.standard ()
    | other ->
        Printf.eprintf "unknown suite %s (quick|standard)\n" other;
        exit 1
  in
  (* one cnn_pipeline stage rides along: convolution exercises the
     fast-forward path on a workload the DSE sweeps care about *)
  let workloads = workloads @ [ Salam_workloads.Cnn.conv () ] in
  let reports =
    Check_snapshot.check_all ~memory_kinds:[ memory_kind ]
      ~modes:[ Salam_engine.Engine.Dynamic; Salam_engine.Engine.Compiled ]
      workloads
  in
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

let run_fuzz ~count ~memory_kind ~seed ~plant_bug =
  let mutate = if plant_bug then Some Check_fuzz.plant_float_bug else None in
  Printf.printf "fuzzing %d kernels (seed %Ld%s)...\n%!" count seed
    (if plant_bug then ", planted float bug" else "");
  let failures = Check_fuzz.run ?mutate ~memory_kind ~seed ~count () in
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

(* the --hw-db/--cycle-time leg: oracle a loadable, possibly non-default
   characterization. The interpreter side is profile-free, so a pass
   means the engine's timing under that table still computes the right
   answer in both scheduling modes. *)
let resolve_profile hw_db cycle_time =
  match (hw_db, cycle_time) with
  | None, None -> None
  | _ ->
      let db =
        match hw_db with
        | None -> Salam_config.builtin
        | Some path -> (
            match Salam_config.load path with
            | Ok db -> db
            | Error e ->
                Printf.eprintf "%s\n" e;
                exit 1)
      in
      let ct = Option.value cycle_time ~default:2.0 in
      (match Salam_config.db_profile db ~cycle_time_ns:ct with
      | Ok p -> Some p
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1)

let main all modes snapshot fuzz suite memory seed plant_bug engine_mode hw_db
    cycle_time =
  match memory_of_string memory with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | Ok memory_kind -> (
      match Salam_engine.Engine.mode_of_string engine_mode with
      | None ->
          Printf.eprintf "unknown engine mode %s (dynamic|compiled)\n" engine_mode;
          exit 1
      | Some mode ->
          let profile = resolve_profile hw_db cycle_time in
          (match profile with
          | Some p ->
              Printf.printf "hardware profile: %s\n" p.Salam_hw.Profile.profile_name
          | None -> ());
          let ran = ref false in
          let ok = ref true in
          if all then begin
            ran := true;
            ok := run_all ~suite ~memory_kind ~seed ~mode ?profile () && !ok
          end;
          if modes then begin
            ran := true;
            ok := run_modes ~suite ~memory_kind ~seed ?profile () && !ok
          end;
          if snapshot then begin
            ran := true;
            ok := run_snapshot ~suite ~memory_kind && !ok
          end;
          (match fuzz with
          | Some count when count > 0 ->
              ran := true;
              ok := run_fuzz ~count ~memory_kind ~seed ~plant_bug && !ok
          | Some _ | None -> ());
          if not !ran then begin
            Printf.eprintf
              "nothing to do: pass --all, --modes, --snapshot and/or --fuzz N\n";
            exit 2
          end;
          if not !ok then exit 1)

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
    Arg.(value & opt string "quick"
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Workload suite for --all, --modes and --snapshot: quick or standard.")
  in
  let memory =
    Arg.(value & opt string "spm"
         & info [ "memory" ] ~docv:"KIND" ~doc:"Memory attachment: spm, cache or dram.")
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
    Arg.(value & opt string "compiled"
         & info [ "engine-mode" ] ~docv:"MODE"
             ~doc:"Engine scheduling implementation for the --all oracle leg: dynamic or \
                   compiled.")
  in
  let hw_db =
    Arg.(value & opt (some file) None
         & info [ "hw-db" ] ~docv:"FILE"
             ~doc:"Run the --all/--modes oracles under a characterization loaded from a \
                   salam_config database (its 2 ns row unless --cycle-time names another).")
  in
  let cycle_time =
    Arg.(value & opt (some float) None
         & info [ "cycle-time" ] ~docv:"NS"
             ~doc:"Characterized cycle time for the oracle runs; must be declared in the \
                   database (the built-in one when --hw-db is omitted).")
  in
  let doc = "differential validation: interpreter-vs-engine oracle, kernel fuzzer" in
  Cmd.v
    (Cmd.info "salam_check" ~version:"1.0.0" ~doc)
    Term.(
      const main $ all $ modes $ snapshot $ fuzz $ suite $ memory $ seed
      $ plant_bug $ engine_mode $ hw_db $ cycle_time)

let () = exit (Cmd.eval cmd)
