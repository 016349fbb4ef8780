(* Trace/observability CLI.

     dune exec bin/salam_trace.exe -- run --workload gemm --mem cache --format json -o gemm.json
     dune exec bin/salam_trace.exe -- run --workload fft --category cache.miss --from-tick 100000
     dune exec bin/salam_trace.exe -- diff a.trace b.trace
     dune exec bin/salam_trace.exe -- golden-check --dir test/golden
     dune exec bin/salam_trace.exe -- bless --dir test/golden

   Exit status: 0 on success; 1 on trace divergence or a failed check;
   2 on a workload that computed a wrong result. *)

open Cmdliner
module Trace = Salam_obs.Trace
module Point = Salam_dse.Point
module Explore = Salam_dse.Explore

let with_out path f =
  match path with
  | None -> f stdout
  | Some p ->
      let oc = open_out p in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let parse_categories = function
  | [] -> Ok None
  | names ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | n :: rest -> (
            match Trace.category_of_string n with
            | Some c -> go (c :: acc) rest
            | None -> Error (Printf.sprintf "unknown category %s" n))
      in
      go [] names

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let run_trace workload memory cache_size format out categories component from_tick to_tick =
  let cats = match parse_categories categories with Ok c -> c | Error msg -> fail "%s" msg in
  let memory =
    match Point.memory_kind_of_string memory with
    | Some m -> m
    | None -> fail "unknown memory kind %s (spm|cache|dram)" memory
  in
  let point = { Point.default with Point.memory; cache_bytes = cache_size } in
  let target =
    match Explore.suite_target workload with
    | Ok t -> t
    | Error e -> fail "%s; try `salam_sim list`" e
  in
  (* the range check salam_dse runs, before anything is built; the cache
     size is the only knob this command sets *)
  (match Explore.check target point with
  | Ok () -> ()
  | Error (key, e) -> fail "%s: %s" (if key = "cache_bytes" then "--cache-size" else key) e);
  let w = target.Explore.build point in
  let sink = Trace.create ?categories:cats () in
  let r = Salam.simulate ~config:(Point.to_config point) ~trace:sink w in
  let filter =
    { Trace.no_filter with Trace.f_comp = component; f_from = from_tick; f_to = to_tick }
  in
  with_out out (fun oc ->
      match format with
      | `Text -> Trace.write_text oc ~filter sink
      | `Json -> Trace.write_chrome_json oc (Trace.filtered ~filter sink)
      | `Stats -> Trace.write_stats_txt oc r.Salam.sim_stats);
  Printf.eprintf "%s: %d events recorded, correct=%b\n" w.Salam_workloads.Workload.name
    (Trace.count sink) r.Salam.correct;
  if not r.Salam.correct then exit 2

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let diff_traces a b =
  let la = read_lines a and lb = read_lines b in
  match Trace.first_divergence la lb with
  | None ->
      Printf.printf "traces identical (%d events)\n" (List.length la);
      0
  | Some d ->
      Printf.printf "%s\n" (Trace.divergence_to_string d);
      1

(* golden files live under the repo, one per scenario *)
let golden_path dir name = Filename.concat dir (name ^ ".trace")

let golden_check dir =
  let failures = ref 0 in
  List.iter
    (fun name ->
      let path = golden_path dir name in
      if not (Sys.file_exists path) then begin
        incr failures;
        Printf.printf "FAIL %-14s missing golden file %s (run bless)\n" name path
      end
      else begin
        let golden = read_lines path in
        let current = String.split_on_char '\n' (String.trim (Check_trace.capture name)) in
        match Trace.first_divergence golden current with
        | None -> Printf.printf "PASS %-14s %d events\n" name (List.length golden)
        | Some d ->
            incr failures;
            Printf.printf "FAIL %-14s %s\n" name (Trace.divergence_to_string d)
      end)
    Check_trace.names;
  (* a golden file no scenario produces would otherwise never be checked *)
  let orphans =
    List.filter
      (fun f ->
        Filename.check_suffix f ".trace"
        && not (List.mem (Filename.chop_suffix f ".trace") Check_trace.names))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  List.iter
    (fun f ->
      Printf.printf "FAIL %-14s golden file %s has no scenario (delete it)\n"
        (Filename.chop_suffix f ".trace") (Filename.concat dir f))
    orphans;
  let failures = !failures + List.length orphans in
  if failures = 0 then 0
  else begin
    Printf.printf
      "%d golden trace(s) fail: a scenario diverges or has no file, or a file has no \
       scenario.\n\
       If the timing change is intended, re-bless with:\n\
      \  dune exec bin/salam_trace.exe -- bless --dir %s\n\
       and delete any golden file whose scenario is gone.\n"
      failures dir;
    1
  end

let bless dir =
  List.iter
    (fun name ->
      let text = Check_trace.capture name in
      let path = golden_path dir name in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "blessed %s\n" path)
    Check_trace.names;
  0

let run_cmd =
  let workload =
    Arg.(required & opt (some string) None
         & info [ "workload" ] ~docv:"NAME" ~doc:"Suite workload to run (prefix match).")
  in
  let memory =
    Arg.(value & opt string "spm"
         & info [ "mem"; "memory" ] ~docv:"KIND" ~doc:"Memory attachment: spm, cache or dram.")
  in
  let cache_size =
    Arg.(value & opt int 4096
         & info [ "cache-size" ] ~docv:"BYTES" ~doc:"Cache capacity for --mem cache.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json); ("stats", `Stats) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:
               "Output format: canonical $(b,text), Chrome trace-event $(b,json), or a \
                gem5-style stats.txt of the whole statistics tree ($(b,stats)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  let categories =
    Arg.(value & opt_all string []
         & info [ "category" ] ~docv:"CAT"
             ~doc:"Record only this category (repeatable), e.g. cache.miss, engine.issue.")
  in
  let component =
    Arg.(value & opt (some string) None
         & info [ "component" ] ~docv:"SUBSTR"
             ~doc:"Keep only events whose component name contains $(docv).")
  in
  let from_tick =
    Arg.(value & opt (some int64) None
         & info [ "from-tick" ] ~docv:"TICK" ~doc:"Drop events before $(docv).")
  in
  let to_tick =
    Arg.(value & opt (some int64) None
         & info [ "to-tick" ] ~docv:"TICK" ~doc:"Drop events after $(docv).")
  in
  let doc = "Run a workload under the trace layer and dump the event stream." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_trace $ workload $ memory $ cache_size $ format $ out $ categories $ component
      $ from_tick $ to_tick)

let diff_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let doc = "Compare two canonical text traces; report the first divergent event." in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const (fun a b -> Stdlib.exit (diff_traces a b)) $ a $ b)

let dir_arg =
  Arg.(value & opt string "test/golden"
       & info [ "dir" ] ~docv:"DIR" ~doc:"Directory holding the golden .trace files.")

let golden_check_cmd =
  let doc =
    "Re-run every golden scenario and diff against its blessed trace; a .trace file \
     with no scenario also fails."
  in
  Cmd.v (Cmd.info "golden-check" ~doc) Term.(const (fun d -> Stdlib.exit (golden_check d)) $ dir_arg)

let bless_cmd =
  let doc = "Regenerate the golden .trace files from the current simulator." in
  Cmd.v (Cmd.info "bless" ~doc) Term.(const (fun d -> Stdlib.exit (bless d)) $ dir_arg)

let cmd =
  let doc = "cycle-accurate trace capture, inspection and golden-trace regression" in
  Cmd.group (Cmd.info "salam_trace" ~version:"1.0.0" ~doc)
    [ run_cmd; diff_cmd; golden_check_cmd; bless_cmd ]

let () = exit (Cmd.eval cmd)
