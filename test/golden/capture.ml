(* Print one golden scenario's canonical text trace; test/golden/dune
   diffs it against the blessed [<scenario>.trace]. *)

let () = print_string (Check_trace.capture Sys.argv.(1))
