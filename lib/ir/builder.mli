(** Imperative construction of IR functions.

    Used by the front end's lowering pass and by tests. A builder holds a
    current insertion block; [fresh] generates uniquely-numbered
    registers. *)

type t

val create : name:string -> ret_ty:Ty.t -> params:(string * Ty.t) list -> t

val params : t -> Ast.var list

val fresh : t -> string -> Ty.t -> Ast.var
(** New register with a fresh id and the given name hint. *)

val add_block : t -> string -> unit
(** Append an (empty) block and make it current. Labels must be unique. *)

val set_block : t -> string -> unit
(** Make an existing block current; later instructions append to it. *)

val current_label : t -> string

val emit : t -> Ast.instr -> unit
(** Append to the current block. *)

val binop : t -> ?name:string -> Ast.binop -> Ast.value -> Ast.value -> Ast.value

val icmp : t -> ?name:string -> Ast.icmp -> Ast.value -> Ast.value -> Ast.value

val fcmp : t -> ?name:string -> Ast.fcmp -> Ast.value -> Ast.value -> Ast.value

val cast : t -> ?name:string -> Ast.cast -> Ast.value -> Ty.t -> Ast.value

val select : t -> ?name:string -> Ast.value -> Ast.value -> Ast.value -> Ast.value

val load : t -> ?name:string -> Ty.t -> Ast.value -> Ast.value

val store : t -> src:Ast.value -> addr:Ast.value -> unit

val gep : t -> ?name:string -> Ast.value -> (int * Ast.value) list -> Ast.value

val alloca : t -> ?name:string -> Ty.t -> int -> Ast.value

val phi : t -> ?name:string -> Ty.t -> (Ast.value * string) list -> Ast.value

val call : t -> ?name:string -> Ty.t -> string -> Ast.value list -> Ast.value option

val br : t -> string -> unit

val cond_br : t -> Ast.value -> string -> string -> unit

val ret : t -> Ast.value option -> unit

val finish : t -> Ast.func
(** Returns the function; entry block is the first block added. *)

val ci32 : int -> Ast.value
(** [i32] integer constant. *)

val ci64 : int -> Ast.value

val cf64 : float -> Ast.value
