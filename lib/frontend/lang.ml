type arith = Add | Sub | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Int_lit of int64
  | Float_lit of float
  | Var of string
  | Index of string * expr list
  | Addr_of of string * expr list
  | Binop of arith * expr * expr
  | Neg of expr
  | Cmp of cmp * expr * expr
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Cond of expr * expr * expr
  | Call of string * expr list
  | Cast of Salam_ir.Ty.t * expr

type stmt =
  | Decl of Salam_ir.Ty.t * string * expr option
  | Assign of string * expr
  | Store of string * expr list * expr
  | Store_ptr of expr * Salam_ir.Ty.t * expr
  | If of expr * stmt list * stmt list
  | For of for_loop
  | While of expr * stmt list
  | Expr_stmt of expr
  | Return of expr option

and for_loop = {
  index : string;
  from_ : expr;
  to_ : expr;
  unroll : int;
  body : stmt list;
}

type param = { pname : string; elem : Salam_ir.Ty.t; dims : int list }

type kernel = {
  kname : string;
  ret : Salam_ir.Ty.t;
  params : param list;
  body : stmt list;
}

let scalar pname elem = { pname; elem; dims = [] }

let array pname elem dims = { pname; elem; dims }

let i n = Int_lit (Int64.of_int n)

let f x = Float_lit x

let v name = Var name

let idx name indices = Index (name, indices)

let ( +: ) a b = Binop (Add, a, b)

let ( -: ) a b = Binop (Sub, a, b)

let ( *: ) a b = Binop (Mul, a, b)

let ( /: ) a b = Binop (Div, a, b)

let ( %: ) a b = Binop (Rem, a, b)

let ( <: ) a b = Cmp (Lt, a, b)

let ( <=: ) a b = Cmp (Le, a, b)

let ( >: ) a b = Cmp (Gt, a, b)

let ( >=: ) a b = Cmp (Ge, a, b)

let ( =: ) a b = Cmp (Eq, a, b)

let ( <>: ) a b = Cmp (Ne, a, b)

let for_ ?(unroll = 1) index from_ to_ body = For { index; from_; to_; unroll; body }

let if_ cond then_ else_ = If (cond, then_, else_)

let decl ty name init = Decl (ty, name, Some init)

let assign name e = Assign (name, e)

let store name indices e = Store (name, indices, e)

let kernel kname ?(ret = Salam_ir.Ty.Void) ~params body = { kname; ret; params; body }
