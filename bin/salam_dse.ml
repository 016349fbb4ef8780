(* Design-space-exploration CLI.

     dune exec bin/salam_dse.exe -- run --workload gemm --store gemm.d
     dune exec bin/salam_dse.exe -- run --workload gemm --mem spm,cache \
         --ports 1,2,4,8,16 --fu 0,2,4,8 --cache-size 512,2048,8192
     dune exec bin/salam_dse.exe -- run --workload gemm --strategy pareto --rounds 4
     dune exec bin/salam_dse.exe -- front --store gemm.d --csv front.csv
     dune exec bin/salam_dse.exe -- explain-config --store gemm.d 8f3a...

   A sweep against an existing --store answers every point already
   measured from it and simulates only the rest, so rerunning an
   interrupted [run] resumes it.

   Exit status: 0 on success; 1 on bad arguments or a refused store;
   2 when any simulated point computed a wrong result. *)

open Cmdliner
module Point = Salam_dse.Point
module Space = Salam_dse.Space
module Store_shard = Salam_dse.Store_shard
module Pareto = Salam_dse.Pareto
module Explore = Salam_dse.Explore
module Measurement = Salam_dse.Measurement

let die fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n" s; exit 1) fmt

(* comma-separated value lists for axis flags *)
let split_ints flag s =
  List.map
    (fun tok ->
      match int_of_string_opt (String.trim tok) with
      | Some v -> v
      | None -> die "--%s: %S is not an integer" flag tok)
    (String.split_on_char ',' s)

let split_floats flag s =
  List.map
    (fun tok ->
      match float_of_string_opt (String.trim tok) with
      | Some v -> v
      | None -> die "--%s: %S is not a number" flag tok)
    (String.split_on_char ',' s)

let split_mems s =
  List.map
    (fun tok ->
      match Point.memory_kind_of_string (String.trim tok) with
      | Some m -> m
      | None -> die "--mem: %S is not spm, cache or dram" tok)
    (String.split_on_char ',' s)

let target_of ~workload ~n =
  if workload = "gemm" then begin
    (* before any axis default is derived from n *)
    if n < 1 then die "--gemm-n: n=%d: must be at least 1" n;
    Explore.gemm_target ~n ()
  end
  else
    match Explore.suite_target workload with
    | Ok t -> t
    | Error e -> die "%s; try `salam_sim list`" e

(* The sweep is declared as a union of one space per memory kind, so the
   port axes only multiply the SPM cloud and the capacity axis only the
   cache cloud — the same shape as the paper's Fig 13. *)
let spaces_of ~mems ~ports ~write_ports ~banks ~fu ~cache_sizes ~unrolls ~junrolls ~clocks
    ~cycle_times ~hw_dbs =
  (* --cycle-time replaces the clock axis entirely: each cycle time pins
     the matching frequency through the axis application, and mixing an
     explicit clock list in would desynchronize profile and clock *)
  let rate_axis =
    match cycle_times with
    | Some cts -> [ Space.Cycle_time_ns cts ]
    | None -> [ Space.Clock_mhz clocks ]
  in
  let db_axis = match hw_dbs with [] -> [] | hs -> [ Space.Hw_db hs ] in
  let common =
    [ Space.Fu_limit fu; Space.Unroll unrolls; Space.Junroll junrolls ]
    @ rate_axis @ db_axis
  in
  List.map
    (fun mem ->
      match mem with
      | Point.Spm ->
          let derive, port_axes =
            match (write_ports, banks) with
            | None, None -> (Space.spm_balanced, [ Space.Read_ports ports ])
            | wp, b ->
                let wp_axis = match wp with Some l -> [ Space.Write_ports l ] | None -> [] in
                let b_axis = match b with Some l -> [ Space.Banks l ] | None -> [] in
                (Space.spm_balanced, Space.Read_ports ports :: (wp_axis @ b_axis))
          in
          (* an explicit write-port/bank axis overrides the balanced
             derivation, which only fills the fields axes left alone *)
          let derive =
            match (write_ports, banks) with
            | None, None -> derive
            | Some _, Some _ -> Fun.id
            | Some _, None ->
                fun (p : Point.t) -> { p with Point.banks = 2 * p.Point.read_ports }
            | None, Some _ ->
                fun (p : Point.t) ->
                  { p with Point.write_ports = max 1 (p.Point.read_ports / 2) }
          in
          Space.create ~derive (Space.Memory [ Point.Spm ] :: port_axes @ common)
      | Point.Cache ->
          Space.create (Space.Memory [ Point.Cache ] :: Space.Cache_bytes cache_sizes :: common)
      | Point.Dram -> Space.create (Space.Memory [ Point.Dram ] :: common))
    mems

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* a file that is not a store, or a damaged one, is refused with the
   path and line at fault *)
let open_store path = try Store_shard.open_ path with Failure e -> die "%s" e

let print_report ~verbose ~csv ~store report =
  let fmt = Format.std_formatter in
  if verbose then begin
    Measurement.pp_header fmt ();
    List.iter (Measurement.pp_row fmt) report.Explore.measurements;
    Format.fprintf fmt "@."
  end;
  Pareto.pp fmt ~front:report.Explore.front ~dominated:report.Explore.dominated;
  (match csv with
  | Some path ->
      write_file path (Pareto.to_csv report.Explore.measurements);
      Format.fprintf fmt "[csv written to %s]@." path
  | None -> ());
  print_endline (Explore.summary_line report ~store);
  if List.exists (fun m -> not m.Measurement.correct) report.Explore.measurements then begin
    Printf.eprintf "error: some design points computed wrong results\n";
    exit 2
  end

(* An unroll axis left unset takes the target's own: 1 where it has no
   unrollable loops, else the largest factor up to [cap] that divides
   their iterations. *)
let default_unroll (target : Explore.target) ~cap = function
  | Some axis -> axis
  | None -> (
      match target.Explore.unroll_trips with
      | None -> [ 1 ]
      | Some trips ->
          let rec largest f = if trips mod f = 0 then f else largest (f - 1) in
          [ largest (min cap trips) ])

let run_sweep workload n store_path server mems ports write_ports banks fu
    cache_sizes unrolls junrolls clocks cycle_times hw_db_paths strategy samples rounds seed
    domains csv quiet invocations fast_forward =
  let target = target_of ~workload ~n in
  let unrolls = default_unroll target ~cap:16 unrolls in
  let junrolls = default_unroll target ~cap:8 junrolls in
  if invocations < 1 then die "--invocations must be at least 1";
  (match fast_forward with
  | Some k when k < 0 || k >= invocations ->
      die "--fast-forward must name a roadmark inside the schedule: 0 <= K < %d" invocations
  | Some _ | None -> ());
  (* load and register every named database so the enumerated points can
     resolve their profiles; the axis carries content hashes *)
  let hw_dbs =
    List.map
      (fun path ->
        match Salam_config.load path with
        | Ok db -> Salam_config.register db
        | Error e -> die "%s" e)
      hw_db_paths
  in
  let spaces =
    spaces_of ~mems ~ports ~write_ports ~banks ~fu ~cache_sizes ~unrolls ~junrolls ~clocks
      ~cycle_times ~hw_dbs
  in
  let strategy =
    match strategy with
    | "exhaustive" -> Explore.Exhaustive
    | "random" -> Explore.Random { samples; seed = Int64.of_int seed }
    | "pareto" ->
        Explore.Pareto_walk { seeds = samples; rounds; seed = Int64.of_int seed }
    | other -> die "unknown strategy %s (exhaustive|random|pareto)" other
  in
  match server with
  | Some socket ->
      (* served mode: the daemon owns store, domains and snapshots; this
         process only enumerates the space and renders the report *)
      if store_path <> None then
        die "--server and --store are mutually exclusive (the daemon owns the store)";
      if domains <> None then die "--domains has no effect with --server (the daemon decides)";
      let spec = { Salam_served.Protocol.workload; gemm_n = n; invocations; fast_forward } in
      let run () =
        Salam_served.Client.with_connection socket (fun client ->
            let remote points =
              let _done_, answers = Salam_served.Client.sweep client ~spec points in
              List.map (fun (served, m) -> (m, served)) answers
            in
            Explore.run ~remote ~invocations ?fast_forward ~target ~strategy spaces)
      in
      let report =
        match run () with
        | report -> report
        | exception Explore.Invalid_point (key, e) -> die "%s: %s" (Explore.flag_of_key key) e
        | exception Salam_served.Client.Protocol_error e -> die "served: %s" e
        | exception Failure e -> die "served: %s" e
      in
      print_report ~verbose:(not quiet) ~csv ~store:None report
  | None ->
      (* the sweep's fan-out width, read once here so a bad SALAM_DOMAINS
         is refused before the store is opened or anything simulates *)
      let domains =
        match domains with
        | Some _ -> domains
        | None -> (
            match Salam.default_domains () with
            | n -> Some n
            | exception Invalid_argument e -> die "%s" e)
      in
      let store =
        match store_path with
        | Some path ->
            let s = open_store path in
            if Store_shard.repaired_bytes s > 0 then
              Printf.eprintf "[dse] store %s: dropped %d bytes of damaged tail, kept %d results\n"
                path (Store_shard.repaired_bytes s) (Store_shard.size s);
            Some s
        | None -> None
      in
      let report =
        match
          Explore.run ?store ?domains ?fast_forward ~invocations ~target ~strategy spaces
        with
        | report -> report
        | exception Explore.Invalid_point (key, e) -> die "%s: %s" (Explore.flag_of_key key) e
      in
      print_report ~verbose:(not quiet) ~csv ~store report;
      Option.iter Store_shard.close store

let load_store path =
  if not (Sys.file_exists path) then die "store %s does not exist" path;
  open_store path

let run_front store_path workload_filter csv =
  let store = load_store store_path in
  let ms =
    match workload_filter with
    | None -> Store_shard.entries store
    | Some w -> List.filter (fun m -> m.Measurement.workload = w) (Store_shard.entries store)
  in
  if ms = [] then die "store %s has no matching results" store_path;
  let front, dominated = Pareto.partition ms in
  Pareto.pp Format.std_formatter ~front ~dominated;
  match csv with
  | Some path ->
      write_file path (Pareto.to_csv front);
      Printf.printf "[csv written to %s]\n" path
  | None -> ()

let explain_config store_path fp_hex =
  let store = load_store store_path in
  match Point.fingerprint_of_hex fp_hex with
  | None -> die "%S is not a 16-hex-digit fingerprint" fp_hex
  | Some fp -> (
      match Store_shard.find store ~fp with
      | None -> die "fingerprint %s not found in %s" fp_hex store_path
      | Some m ->
          let p = m.Measurement.point in
          Printf.printf "fingerprint   %s\nworkload      %s\npoint         %s\n"
            fp_hex m.Measurement.workload (Point.to_string p);
          List.iter
            (fun kv ->
              let i = String.index kv '=' in
              Printf.printf "  %-12s %s\n" (String.sub kv 0 i)
                (String.sub kv (i + 1) (String.length kv - i - 1)))
            (String.split_on_char ',' (Point.to_compact p));
          let config = Point.to_config p in
          (match config.Salam.Config.memory with
          | Salam.Config.Spm { read_ports; write_ports; banks; latency } ->
              Printf.printf
                "elaborates to SPM: %d read / %d write ports, %d banks, latency %d\n"
                read_ports write_ports banks latency
          | Salam.Config.Cache { size; line_bytes; ways; hit_latency } ->
              Printf.printf
                "elaborates to cache: %dB, %dB lines, %d ways, hit latency %d\n" size
                line_bytes ways hit_latency
          | Salam.Config.Dram_direct -> Printf.printf "elaborates to direct DRAM\n");
          Printf.printf
            "measured      %Ld cycles, %.2f us, %.2f mW total (%.2f mW datapath), %.0f um2, correct=%b\n"
            m.Measurement.cycles
            (m.Measurement.seconds *. 1e6)
            m.Measurement.total_mw m.Measurement.datapath_mw m.Measurement.area_um2
            m.Measurement.correct)

(* --- cmdliner wiring ---------------------------------------------------- *)

let workload_arg =
  Arg.(value & opt string "gemm"
       & info [ "workload" ] ~docv:"NAME"
           ~doc:"Target workload: gemm (with unroll axes) or a suite workload by prefix.")

let n_arg =
  Arg.(value & opt int 16
       & info [ "gemm-n" ] ~docv:"N" ~doc:"GEMM matrix dimension (gemm target only).")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"PATH"
           ~doc:"Persistent result store; re-runs answer from it incrementally. A missing \
                 or empty $(docv) is created as a store directory; an existing store \
                 directory is opened as it is.")

let server_arg =
  Arg.(value & opt (some string) None
       & info [ "server" ] ~docv:"SOCKET"
           ~doc:"Evaluate points through a salam_served daemon at this Unix-domain \
                 socket instead of simulating locally. Mutually exclusive with \
                 $(b,--store); results are byte-identical either way.")

let list_arg ~name ~docv ~doc ~default c =
  Arg.value (Arg.opt c default (Arg.info [ name ] ~docv ~doc))

(* a list printed as its parser reads it, so help shows the defaults *)
let comma_list pp =
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',') pp

(* the shortest of %.15g and %.17g that reads back as the same float *)
let pp_float fmt f =
  let s = Printf.sprintf "%.15g" f in
  Format.pp_print_string fmt (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

let ints name = Arg.conv ((fun s -> Ok (split_ints name s)), comma_list Format.pp_print_int)
let floats name = Arg.conv ((fun s -> Ok (split_floats name s)), comma_list pp_float)

let mems_conv =
  Arg.conv
    ( (fun s -> Ok (split_mems s)),
      comma_list (fun fmt m -> Format.pp_print_string fmt (Point.memory_kind_to_string m)) )

let mems_arg =
  Arg.(value & opt mems_conv [ Point.Spm ]
       & info [ "mem"; "memory" ] ~docv:"KINDS"
           ~doc:"Memory kinds to sweep (comma-separated: spm,cache,dram).")

let ports_arg =
  list_arg ~name:"ports" ~docv:"LIST" ~default:[ 1; 2; 4; 8; 16 ]
    ~doc:"SPM read-port axis. Write ports and banks derive as read/2 and 2*read unless overridden."
    (ints "ports")

let write_ports_arg =
  Arg.(value & opt (some (ints "write-ports")) None
       & info [ "write-ports" ] ~docv:"LIST" ~doc:"Explicit SPM write-port axis.")

let banks_arg =
  Arg.(value & opt (some (ints "banks")) None
       & info [ "banks" ] ~docv:"LIST" ~doc:"Explicit SPM bank axis.")

let fu_arg =
  list_arg ~name:"fu" ~docv:"LIST" ~default:[ 0; 2; 4; 8 ]
    ~doc:
      "FADD/FMUL unit-count axis; 0 means the unconstrained 1:1 map. Only the loosest cap \
       of points that differ in nothing else is simulated: a tighter cap its run never \
       reached (never more units of the class busy at once) is answered from that run, \
       byte-identical to simulating it."
    (ints "fu")

let cache_sizes_arg =
  list_arg ~name:"cache-size" ~docv:"LIST" ~default:[ 512; 2048; 8192 ]
    ~doc:"Cache capacity axis in bytes (cache memory kind only)." (ints "cache-size")

let unroll_arg =
  list_arg ~name:"unroll" ~docv:"LIST" ~default:None
    ~doc:
      "Inner (k) loop unroll axis (gemm target); each factor must divide $(b,--gemm-n). \
       Default: the largest factor up to 16 that does; 1 for a suite workload."
    (Arg.some (ints "unroll"))

let junroll_arg =
  list_arg ~name:"junroll" ~docv:"LIST" ~default:None
    ~doc:
      "Middle (j) loop unroll axis (gemm target); each factor must divide $(b,--gemm-n). \
       Default: the largest factor up to 8 that does; 1 for a suite workload."
    (Arg.some (ints "junroll"))

let clock_arg =
  list_arg ~name:"clock" ~docv:"LIST" ~default:[ 500.0 ] ~doc:"Clock axis in MHz." (floats "clock")

let cycle_times_arg =
  Arg.(value & opt (some (floats "cycle-time")) None
       & info [ "cycle-time" ] ~docv:"LIST"
           ~doc:"Hardware cycle-time axis in ns. Each value selects the database row \
                 characterized at that cycle time $(i,and) pins the clock to the matching \
                 frequency, replacing the $(b,--clock) axis.")

let hw_db_arg =
  Arg.(value & opt_all file []
       & info [ "hw-db" ] ~docv:"FILE"
           ~doc:"Load a characterization database and add it as an axis value (repeatable). \
                 Omitted, points use the built-in 40 nm database.")

let strategy_arg =
  Arg.(value & opt string "exhaustive"
       & info [ "strategy" ] ~docv:"S" ~doc:"Search strategy: exhaustive, random or pareto.")

let samples_arg =
  Arg.(value & opt int 8
       & info [ "samples" ] ~docv:"N" ~doc:"Sample count (random) / seed-point count (pareto).")

let rounds_arg =
  Arg.(value & opt int 4
       & info [ "rounds" ] ~docv:"N" ~doc:"Mutation rounds for the pareto strategy.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed for random/pareto.")

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains that fan a simulation batch out across design points \
                 (default: $(b,SALAM_DOMAINS), else the core count). Each point runs on one \
                 sequential event kernel, so results are identical for any value.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE" ~doc:"Also write every measurement as CSV to $(docv).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Print only the front and the summary line.")

let invocations_arg =
  Arg.(value & opt int 1
       & info [ "invocations" ] ~docv:"N"
           ~doc:"Run each design point's kernel $(docv) times back-to-back.")

let fast_forward_arg =
  Arg.(value & opt (some int) None
       & info [ "fast-forward" ] ~docv:"K"
           ~doc:
             "Interpret-once/simulate-many: reach the roadmark after invocation $(docv) \
              with the functional interpreter once per workload and memory kind, then fork \
              every detailed simulation from that shared snapshot. Measurements cover the \
              post-roadmark epoch.")

let sweep_term =
  Term.(
    const run_sweep
    $ workload_arg $ n_arg $ store_arg $ server_arg $ mems_arg $ ports_arg $ write_ports_arg
    $ banks_arg $ fu_arg $ cache_sizes_arg $ unroll_arg $ junroll_arg $ clock_arg
    $ cycle_times_arg $ hw_db_arg
    $ strategy_arg $ samples_arg $ rounds_arg $ seed_arg $ domains_arg
    $ csv_arg
    $ quiet_arg $ invocations_arg $ fast_forward_arg)

let run_cmd =
  let doc =
    "Run a sweep: enumerate the space, answer cached points from the store, simulate the rest."
  in
  Cmd.v (Cmd.info "run" ~doc) sweep_term

let front_cmd =
  let store =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"PATH" ~doc:"Store directory to read.")
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "workload" ] ~docv:"NAME" ~doc:"Restrict to one workload identity.")
  in
  let doc = "Extract the Pareto front from a store without running anything." in
  Cmd.v (Cmd.info "front" ~doc) Term.(const run_front $ store $ workload $ csv_arg)

let explain_cmd =
  let store =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"PATH" ~doc:"Store directory to read.")
  in
  let fp = Arg.(required & pos 0 (some string) None & info [] ~docv:"FINGERPRINT") in
  let doc = "Decode a stored fingerprint: the point, the elaborated config, the measurement." in
  Cmd.v (Cmd.info "explain-config" ~doc) Term.(const explain_config $ store $ fp)

let cmd =
  let doc = "design-space exploration with persistent result caching and Pareto extraction" in
  Cmd.group (Cmd.info "salam_dse" ~version:"1.0.0" ~doc)
    [ run_cmd; front_cmd; explain_cmd ]

let () = exit (Cmd.eval cmd)
