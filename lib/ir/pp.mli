(** Textual printer for the IR.

    The output is LLVM-flavoured assembly that {!Parser} reads back
    exactly ([parse (print m)] reproduces [m] up to register ids). Floats
    are printed as hexadecimal literals so the round trip is bit-exact. *)

val var : Format.formatter -> Ast.var -> unit

val instr : Format.formatter -> Ast.instr -> unit

val func_to_string : Ast.func -> string

val modul_to_string : Ast.modul -> string
