(* The layered performance ledger: one command runs one workload under
   one seed, checks every answer, and prints every metric by name with
   its unit and sample count. The last line of standard output is one
   JSON object: the end-to-end metrics, or with --trace 1 the per-layer
   ones. Exit status 0 only when every check passed.

     dune exec benchmark/ledger.exe -- --workload sim-suite --seed 1 --seconds 16 --trace 0

   See benchmark/README.md for the workloads and metrics. *)

let workloads =
  [
    ("sim-suite", Sim_suite.run);
    ("dse-sweep", Dse_sweep.run);
    ("soc-pipeline", Soc_pipeline.run);
    ("served-mix", Served_mix.run);
  ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

let print_simulate_split () =
  let v name = Option.map (fun x -> x.Report.v) (Hashtbl.find_opt Report.values name) in
  match (v "core.simulate_ms", v "cdfg.elaborate_ms", v "engine.schedule_ms", v "core.run_ms") with
  | Some sim, Some elab, Some sched, Some run when sim > 0. ->
      let pct x = 100. *. x /. sim in
      Printf.printf
        "[trace] core.simulate %.3f ms = cdfg.elaborate %.3f ms (%.1f%%) + engine.schedule %.3f ms \
         (%.1f%%) + core.run %.3f ms (%.1f%%; engine, event kernel and memory, unattributed)\n"
        sim elab (pct elab) sched (pct sched) run (pct run)
  | _ -> ()

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref Run.nominal_seconds and trace = ref 0 in
  let trace_json = ref "" and out = ref "" and quick = ref false and plant = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S scales the fixed operation counts (default 16)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run: print the per-layer metrics");
      ("--trace-json", Arg.Set_string trace_json, "FILE Chrome trace-event output of a traced run");
      ("--out", Arg.Set_string out, "FILE write the run header, every metric and every raw sample");
      ("--quick", Arg.Set quick, " tiny inputs and counts (smoke test)");
      ("--plant", Arg.Set plant, " corrupt one expected answer; the run must then fail");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "ledger --workload W --seed N [options]";
  let run_workload =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> die "--workload must be one of %s" (String.concat ", " (List.map fst workloads))
  in
  if !seed < 0 then die "--seed N is required (N >= 0)";
  if not (!trace = 0 || !trace = 1) then die "--trace takes 0 or 1";
  if !seconds < 0. then die "--seconds must be non-negative";
  let nproc = Domain.recommended_domain_count () in
  (* the documented user switch for island and sweep parallelism; set
     before anything reads it, and inherited by every subprocess *)
  Unix.putenv "SALAM_DOMAINS" (string_of_int nproc);
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  let ctx =
    {
      Run.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      quick = !quick;
      plant = !plant;
      nproc;
      (* the CLIs it drives are built in the same dune tree *)
      bin_dir = Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin");
    }
  in
  let started = Unix.gettimeofday () in
  (try run_workload ctx with e -> Report.fail "%s: %s" !workload (Printexc.to_string e));
  Proc.reap_all ();
  let defs = Report.finalize ~trace:ctx.Run.trace in
  Report.print_human ();
  if ctx.Run.trace then begin
    print_simulate_split ();
    let path =
      if !trace_json <> "" then !trace_json
      else begin
        Proc.mkdir_p Proc.root;
        Filename.concat Proc.root (Printf.sprintf "%s-seed%d.trace.json" !workload !seed)
      end
    in
    Span.write_chrome path ~process:("ledger " ^ !workload ^ " (host time)") (Span.all ());
    Printf.printf "[trace] %d spans written to %s\n" (List.length (Span.all ())) path
  end;
  if !out <> "" then
    Report.write_out !out
      ~header:
        [
          ("commit", Span.json_string (Report.git_commit ()));
          ("nproc", string_of_int nproc);
          ("ocaml", Span.json_string Sys.ocaml_version);
          ("workload", Span.json_string !workload);
          ("seed", string_of_int !seed);
          ("seconds", Report.number !seconds);
          ("trace", string_of_int !trace);
          ("quick", string_of_bool !quick);
          ("wall_s", Report.number (Unix.gettimeofday () -. started));
        ];
  print_endline (Report.json_line defs);
  exit (if Report.correct () then 0 else 1)
