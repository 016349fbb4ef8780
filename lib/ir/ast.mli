(** Abstract syntax of the LLVM-IR subset.

    Instructions follow LLVM semantics. The one deliberate divergence is
    [Gep]: address arithmetic is expressed as a base pointer plus a list
    of [(byte_scale, index)] terms, which is what LLVM's getelementptr
    lowers to once aggregate types are flattened. The front end performs
    that flattening. *)

type var = { id : int; vname : string; ty : Ty.t }
(** SSA virtual register. [id] is unique within a function; [vname] is a
    human-readable hint used by the printer. *)

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
  mutable blocks : block list;  (** entry block first *)
}

type global = { gname : string; gty : Ty.t; elements : int; init : const array option }
(** A module-level array of [elements] values of type [gty]. *)

type modul = { mutable funcs : func list; mutable globals : global list }

val value_ty : value -> Ty.t

val defined_var : instr -> var option
(** Destination register, if the instruction produces one. *)

val used_values : instr -> value list
(** Operand values read by the instruction (phi incoming included). *)

val operands : instr -> value array
(** {!used_values} as a fresh array, built without the list. *)

val used_vars : instr -> var list
(** Registers among {!used_values}. *)

val is_terminator : instr -> bool

val successors : instr -> string list
(** Successor labels of a terminator; [[]] for [Ret] and non-terminators. *)

val binop_ty : binop -> value -> Ty.t
(** Result type of a binop given its lhs operand. *)

val cast_result_ok : cast -> src:Ty.t -> dst:Ty.t -> bool
(** Whether [dst] is an allowed result type for [op] applied to [src]. *)

val entry_block : func -> block

val find_block : func -> string -> block option

val find_func : modul -> string -> func option

val map_instrs : func -> (instr -> instr) -> unit
(** In-place instruction rewrite over all blocks. *)

val iter_instrs : func -> (block -> instr -> unit) -> unit

val instr_count : func -> int

val binop_to_string : binop -> string

val icmp_to_string : icmp -> string

val fcmp_to_string : fcmp -> string

val cast_to_string : cast -> string
