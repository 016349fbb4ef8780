type var = { id : int; vname : string; ty : Ty.t }

type const = Cint of Ty.t * int64 | Cfloat of Ty.t * float | Cnull

type value = Var of var | Const of const

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | Shl
  | Lshr
  | Ashr
  | And
  | Or
  | Xor
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Frem

type icmp = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge

type fcmp = Foeq | Fone | Folt | Fole | Fogt | Foge

type cast =
  | Trunc
  | Zext
  | Sext
  | Fptrunc
  | Fpext
  | Fptosi
  | Sitofp
  | Bitcast
  | Ptrtoint
  | Inttoptr

type instr =
  | Binop of { dst : var; op : binop; lhs : value; rhs : value }
  | Icmp of { dst : var; pred : icmp; lhs : value; rhs : value }
  | Fcmp of { dst : var; pred : fcmp; lhs : value; rhs : value }
  | Cast of { dst : var; op : cast; src : value }
  | Select of { dst : var; cond : value; if_true : value; if_false : value }
  | Load of { dst : var; addr : value }
  | Store of { src : value; addr : value }
  | Gep of { dst : var; base : value; offsets : (int * value) list }
  | Phi of { dst : var; incoming : (value * string) list }
  | Alloca of { dst : var; elem_ty : Ty.t; count : int }
  | Call of { dst : var option; callee : string; args : value list }
  | Br of string
  | Cond_br of { cond : value; if_true : string; if_false : string }
  | Ret of value option

type block = { label : string; mutable instrs : instr list }

type func = {
  fname : string;
  params : var list;
  ret_ty : Ty.t;
  mutable blocks : block list;
}

type global = { gname : string; gty : Ty.t; elements : int; init : const array option }

type modul = { mutable funcs : func list; mutable globals : global list }

let[@inline] value_ty = function
  | Var v -> v.ty
  | Const (Cint (ty, _)) -> ty
  | Const (Cfloat (ty, _)) -> ty
  | Const Cnull -> Ty.Ptr

let defined_var = function
  | Binop { dst; _ }
  | Icmp { dst; _ }
  | Fcmp { dst; _ }
  | Cast { dst; _ }
  | Select { dst; _ }
  | Load { dst; _ }
  | Gep { dst; _ }
  | Phi { dst; _ }
  | Alloca { dst; _ } ->
      Some dst
  | Call { dst; _ } -> dst
  | Store _ | Br _ | Cond_br _ | Ret _ -> None

let used_values = function
  | Binop { lhs; rhs; _ } | Icmp { lhs; rhs; _ } | Fcmp { lhs; rhs; _ } -> [ lhs; rhs ]
  | Cast { src; _ } -> [ src ]
  | Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]
  | Load { addr; _ } -> [ addr ]
  | Store { src; addr } -> [ src; addr ]
  | Gep { base; offsets; _ } -> base :: List.map snd offsets
  | Phi { incoming; _ } -> List.map fst incoming
  | Alloca _ -> []
  | Call { args; _ } -> args
  | Br _ -> []
  | Cond_br { cond; _ } -> [ cond ]
  | Ret v -> ( match v with Some v -> [ v ] | None -> [])

let operands = function
  | Binop { lhs; rhs; _ } | Icmp { lhs; rhs; _ } | Fcmp { lhs; rhs; _ } -> [| lhs; rhs |]
  | Cast { src; _ } -> [| src |]
  | Select { cond; if_true; if_false; _ } -> [| cond; if_true; if_false |]
  | Load { addr; _ } -> [| addr |]
  | Store { src; addr } -> [| src; addr |]
  | Gep { base; offsets; _ } ->
      let a = Array.make (1 + List.length offsets) base in
      List.iteri (fun i (_, v) -> a.(i + 1) <- v) offsets;
      a
  | Phi { incoming; _ } ->
      let a = Array.make (List.length incoming) (Const Cnull) in
      List.iteri (fun i (v, _) -> a.(i) <- v) incoming;
      a
  | Call { args; _ } -> Array.of_list args
  | Cond_br { cond; _ } -> [| cond |]
  | Ret (Some v) -> [| v |]
  | Alloca _ | Br _ | Ret None -> [||]

let used_vars instr =
  List.filter_map (function Var v -> Some v | Const _ -> None) (used_values instr)

let is_terminator = function
  | Br _ | Cond_br _ | Ret _ -> true
  | Binop _ | Icmp _ | Fcmp _ | Cast _ | Select _ | Load _ | Store _ | Gep _ | Phi _
  | Alloca _ | Call _ ->
      false

let successors = function
  | Br label -> [ label ]
  | Cond_br { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Ret _ -> []
  | Binop _ | Icmp _ | Fcmp _ | Cast _ | Select _ | Load _ | Store _ | Gep _ | Phi _
  | Alloca _ | Call _ ->
      []

let binop_ty (_ : binop) lhs = value_ty lhs

let cast_result_ok op ~src ~dst =
  let open Ty in
  match op with
  | Trunc -> is_integer src && is_integer dst && bits dst < bits src
  | Zext | Sext -> is_integer src && is_integer dst && bits dst > bits src
  | Fptrunc -> equal src F64 && equal dst F32
  | Fpext -> equal src F32 && equal dst F64
  | Fptosi -> is_float src && is_integer dst
  | Sitofp -> is_integer src && is_float dst
  | Bitcast -> bits src = bits dst
  | Ptrtoint -> equal src Ptr && is_integer dst
  | Inttoptr -> is_integer src && equal dst Ptr

let entry_block f =
  match f.blocks with
  | entry :: _ -> entry
  | [] -> invalid_arg ("entry_block: function " ^ f.fname ^ " has no blocks")

let find_block f label = List.find_opt (fun b -> b.label = label) f.blocks

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let map_instrs f g = List.iter (fun b -> b.instrs <- List.map g b.instrs) f.blocks

let iter_instrs f g = List.iter (fun b -> List.iter (fun i -> g b i) b.instrs) f.blocks

let instr_count f = List.fold_left (fun acc b -> acc + List.length b.instrs) 0 f.blocks

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Udiv -> "udiv"
  | Srem -> "srem"
  | Urem -> "urem"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Frem -> "frem"

let icmp_to_string = function
  | Ieq -> "eq"
  | Ine -> "ne"
  | Islt -> "slt"
  | Isle -> "sle"
  | Isgt -> "sgt"
  | Isge -> "sge"
  | Iult -> "ult"
  | Iule -> "ule"
  | Iugt -> "ugt"
  | Iuge -> "uge"

let fcmp_to_string = function
  | Foeq -> "oeq"
  | Fone -> "one"
  | Folt -> "olt"
  | Fole -> "ole"
  | Fogt -> "ogt"
  | Foge -> "oge"

let cast_to_string = function
  | Trunc -> "trunc"
  | Zext -> "zext"
  | Sext -> "sext"
  | Fptrunc -> "fptrunc"
  | Fpext -> "fpext"
  | Fptosi -> "fptosi"
  | Sitofp -> "sitofp"
  | Bitcast -> "bitcast"
  | Ptrtoint -> "ptrtoint"
  | Inttoptr -> "inttoptr"
