(** Value substitution over functions.

    A substitution maps register ids to replacement values; chains
    (a -> b, b -> c) are followed to a fixed point. Used by SSA
    construction and the optimisation passes to delete instructions and
    redirect their uses. *)

type t

val create : unit -> t

val add : t -> Ast.var -> Ast.value -> unit

val resolve : t -> Ast.value -> Ast.value
(** Follow the chain; identity for unmapped values and constants. *)

val rewrite_instr : t -> Ast.instr -> Ast.instr
(** Replace every operand (not the destination). *)

val apply : t -> Ast.func -> unit
(** Rewrite all instructions of the function in place. *)
