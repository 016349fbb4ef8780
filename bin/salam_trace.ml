(* Trace inspection and golden-trace regression. Traces are recorded
   by salam_sim run --trace FILE; this tool compares them and keeps the
   golden scenarios under test/golden.

     dune exec bin/salam_trace.exe -- diff a.trace b.trace
     dune exec bin/salam_trace.exe -- golden-check --dir test/golden
     dune exec bin/salam_trace.exe -- bless --dir test/golden

   Exit status: 0 on success; 1 on trace divergence or a failed check;
   a --dir that is not a directory, given or the default, is a usage
   error (Cmdliner's 124). *)

open Cmdliner
module Trace = Salam_obs.Trace

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

let diff_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let doc = "Compare two canonical text traces; report the first divergent event." in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const (fun a b -> Stdlib.exit (diff_traces a b)) $ a $ b)

(* Cmdliner checks a given value only, so the default goes through the
   same conv here: missing, it is the same usage error (124) naming it *)
let dir_arg =
  let default = "test/golden" in
  let given =
    Arg.(value & opt (some dir) None
         & info [ "dir" ] ~docv:"DIR" ~absent:default
             ~doc:"Directory holding the golden .trace files.")
  in
  let resolve = function
    | Some d -> Ok d
    | None ->
        Result.map_error
          (fun (`Msg m) -> `Msg (Printf.sprintf "option '--dir' (default): %s" m))
          (Arg.conv_parser Arg.dir default)
  in
  Term.(term_result ~usage:true (const resolve $ given))

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
  let doc = "trace inspection and golden-trace regression" in
  Cmd.group (Cmd.info "salam_trace" ~version:"1.0.0" ~doc)
    [ diff_cmd; golden_check_cmd; bless_cmd ]

let () = exit (Cmd.eval cmd)
