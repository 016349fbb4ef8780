(** Kernel description language.

    gem5-SALAM users write accelerator kernels as single in-lined C
    functions compiled by clang. This module is the equivalent front door
    here: a small C-like AST with typed scalars, row-major arrays, [for]
    loops carrying unroll pragmas, and calls to math intrinsics. {!Lower}
    translates kernels to IR.

    Scalar and element types are {!Salam_ir.Ty.t} values; array
    parameters are pointers with declared element type and dimensions. *)

type arith = Add | Sub | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor
(** Arithmetic operators; integer vs float opcodes are chosen during
    lowering from the operand types. *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Int_lit of int64  (** type adapts to context; defaults to i32 *)
  | Float_lit of float  (** defaults to f64 *)
  | Var of string
  | Index of string * expr list  (** [a\[i\]\[j\]], row-major *)
  | Addr_of of string * expr list  (** [&a\[i\]...]: pointer into an array *)
  | Binop of arith * expr * expr
  | Neg of expr
  | Cmp of cmp * expr * expr
  | Not of expr
  | And of expr * expr  (** non-short-circuit, lowers to [and i1] *)
  | Or of expr * expr
  | Cond of expr * expr * expr  (** ternary, lowers to [select] *)
  | Call of string * expr list  (** math intrinsic or another kernel *)
  | Cast of Salam_ir.Ty.t * expr

type stmt =
  | Decl of Salam_ir.Ty.t * string * expr option
  | Assign of string * expr
  | Store of string * expr list * expr  (** [a\[i\]... = e] *)
  | Store_ptr of expr * Salam_ir.Ty.t * expr  (** [*(ty* )p = e] *)
  | If of expr * stmt list * stmt list
  | For of for_loop
  | While of expr * stmt list
  | Expr_stmt of expr  (** for void calls *)
  | Return of expr option

and for_loop = {
  index : string;
  from_ : expr;
  to_ : expr;  (** exclusive upper bound *)
  unroll : int;  (** 1 = no unrolling *)
  body : stmt list;
}

type param = {
  pname : string;
  elem : Salam_ir.Ty.t;
  dims : int list;  (** [] for scalar parameters *)
}

type kernel = {
  kname : string;
  ret : Salam_ir.Ty.t;
  params : param list;
  body : stmt list;
}

(** {2 Construction helpers} *)

val scalar : string -> Salam_ir.Ty.t -> param

val array : string -> Salam_ir.Ty.t -> int list -> param

val i : int -> expr

val f : float -> expr

val v : string -> expr

val idx : string -> expr list -> expr

val ( +: ) : expr -> expr -> expr
(** Integer or float addition, picked by operand types at lowering. *)

val ( -: ) : expr -> expr -> expr

val ( *: ) : expr -> expr -> expr

val ( /: ) : expr -> expr -> expr

val ( %: ) : expr -> expr -> expr

val ( <: ) : expr -> expr -> expr

val ( <=: ) : expr -> expr -> expr

val ( >: ) : expr -> expr -> expr

val ( >=: ) : expr -> expr -> expr

val ( =: ) : expr -> expr -> expr

val ( <>: ) : expr -> expr -> expr

val for_ : ?unroll:int -> string -> expr -> expr -> stmt list -> stmt

val if_ : expr -> stmt list -> stmt list -> stmt

val decl : Salam_ir.Ty.t -> string -> expr -> stmt

val assign : string -> expr -> stmt

val store : string -> expr list -> expr -> stmt

val kernel :
  string -> ?ret:Salam_ir.Ty.t -> params:param list -> stmt list -> kernel
