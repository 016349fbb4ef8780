open Salam_ir

exception Error of string

let kernel (k : Lang.kernel) =
  let f = Lower.kernel k in
  ignore (Mem2reg.run f);
  Passes.run_all f;
  (match Verify.func f with
  | [] -> ()
  | problems ->
      let msg =
        String.concat "\n" (List.map (Format.asprintf "%a" Verify.pp_problem) problems)
      in
      raise (Error (Printf.sprintf "kernel %s compiled to invalid IR:\n%s\n%s" k.kname msg (Pp.func_to_string f))));
  f
