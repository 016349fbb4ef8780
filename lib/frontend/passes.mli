(** Scalar optimisation passes run after {!Mem2reg}.

    These mirror the clang -O1-ish cleanups the paper relies on so that
    the elaborated datapath reflects real work rather than lowering
    artefacts. All passes mutate the function in place and return a
    change count so the driver can iterate to a fixed point. *)

val common_subexpr : Salam_ir.Ast.func -> int
(** Block-local value numbering over pure instructions. *)

val run_all : Salam_ir.Ast.func -> unit
(** Iterate all passes to a fixed point (bounded). *)
