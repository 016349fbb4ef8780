(* Trace inspection. Traces are recorded by salam_sim run --trace FILE;
   this tool compares two of them and reports the first divergent event.

     dune exec bin/salam_trace.exe -- diff a.trace b.trace

   Exit status: 0 when the traces are identical, 1 on divergence. The
   golden traces under test/golden are diffed by dune rules and blessed
   by `dune promote`. *)

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

let diff_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let doc = "Compare two canonical text traces; report the first divergent event." in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const (fun a b -> Stdlib.exit (diff_traces a b)) $ a $ b)

let cmd =
  let doc = "trace inspection" in
  Cmd.group (Cmd.info "salam_trace" ~version:"1.0.0" ~doc) [ diff_cmd ]

let () = exit (Cmd.eval cmd)
