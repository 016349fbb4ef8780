open Ast

let var ppf v = Format.fprintf ppf "%%%s.%d" v.vname v.id

let float_literal f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let const ppf = function
  | Cint (_, i) -> Format.fprintf ppf "%Ld" i
  | Cfloat (_, f) -> Format.pp_print_string ppf (float_literal f)
  | Cnull -> Format.pp_print_string ppf "null"

let value ppf = function
  | Var v -> var ppf v
  | Const c -> const ppf c

(* e.g. [i32 %n.4] *)
let typed_value ppf v = Format.fprintf ppf "%a %a" Ty.pp (value_ty v) value v

let label ppf l = Format.fprintf ppf "%%%s" l

let instr ppf = function
  | Binop { dst; op; lhs; rhs } ->
      Format.fprintf ppf "%a = %s %a %a, %a" var dst (binop_to_string op) Ty.pp dst.ty value
        lhs value rhs
  | Icmp { dst; pred; lhs; rhs } ->
      Format.fprintf ppf "%a = icmp %s %a %a, %a" var dst (icmp_to_string pred) Ty.pp
        (value_ty lhs) value lhs value rhs
  | Fcmp { dst; pred; lhs; rhs } ->
      Format.fprintf ppf "%a = fcmp %s %a %a, %a" var dst (fcmp_to_string pred) Ty.pp
        (value_ty lhs) value lhs value rhs
  | Cast { dst; op; src } ->
      Format.fprintf ppf "%a = %s %a %a to %a" var dst (cast_to_string op) Ty.pp
        (value_ty src) value src Ty.pp dst.ty
  | Select { dst; cond; if_true; if_false } ->
      Format.fprintf ppf "%a = select i1 %a, %a, %a" var dst value cond typed_value if_true
        typed_value if_false
  | Load { dst; addr } ->
      Format.fprintf ppf "%a = load %a, ptr %a" var dst Ty.pp dst.ty value addr
  | Store { src; addr } ->
      Format.fprintf ppf "store %a, ptr %a" typed_value src value addr
  | Gep { dst; base; offsets } ->
      Format.fprintf ppf "%a = gep ptr %a" var dst value base;
      List.iter
        (fun (scale, idx) -> Format.fprintf ppf ", %d x %a" scale typed_value idx)
        offsets
  | Phi { dst; incoming } ->
      Format.fprintf ppf "%a = phi %a " var dst Ty.pp dst.ty;
      List.iteri
        (fun i (v, l) ->
          if i > 0 then Format.fprintf ppf ", ";
          Format.fprintf ppf "[ %a, %a ]" value v label l)
        incoming
  | Alloca { dst; elem_ty; count } ->
      Format.fprintf ppf "%a = alloca %a, %d" var dst Ty.pp elem_ty count
  | Call { dst; callee; args } ->
      (match dst with
      | Some d -> Format.fprintf ppf "%a = call %a @%s(" var d Ty.pp d.ty callee
      | None -> Format.fprintf ppf "call void @%s(" callee);
      List.iteri
        (fun i a ->
          if i > 0 then Format.fprintf ppf ", ";
          typed_value ppf a)
        args;
      Format.fprintf ppf ")"
  | Br l -> Format.fprintf ppf "br label %a" label l
  | Cond_br { cond; if_true; if_false } ->
      Format.fprintf ppf "br i1 %a, label %a, label %a" value cond label if_true label
        if_false
  | Ret None -> Format.fprintf ppf "ret void"
  | Ret (Some v) -> Format.fprintf ppf "ret %a" typed_value v

let block ppf b =
  Format.fprintf ppf "%s:@." b.label;
  List.iter (fun i -> Format.fprintf ppf "  %a@." instr i) b.instrs

let func ppf f =
  Format.fprintf ppf "define %a @%s(" Ty.pp f.ret_ty f.fname;
  List.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%a %a" Ty.pp p.ty var p)
    f.params;
  Format.fprintf ppf ") {@.";
  List.iter (block ppf) f.blocks;
  Format.fprintf ppf "}@."

let global ppf (g : global) =
  Format.fprintf ppf "@%s = global %a x %d" g.gname Ty.pp g.gty g.elements;
  (match g.init with
  | None -> ()
  | Some init ->
      Format.fprintf ppf " [ ";
      Array.iteri
        (fun i c ->
          if i > 0 then Format.fprintf ppf ", ";
          const ppf c)
        init;
      Format.fprintf ppf " ]");
  Format.fprintf ppf "@."

let modul ppf m =
  List.iter (global ppf) m.globals;
  List.iter
    (fun f ->
      Format.fprintf ppf "@.";
      func ppf f)
    m.funcs

let func_to_string f = Format.asprintf "%a" func f

let modul_to_string m = Format.asprintf "%a" modul m
