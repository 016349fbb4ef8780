(** Kernel compilation driver: lower, promote to SSA, optimise, verify.

    This is the front door used by workloads and examples — the analogue
    of the paper's [clang -O1 -emit-llvm] step. *)

exception Error of string

val kernel : Lang.kernel -> Salam_ir.Ast.func
(** Compile one kernel to verified, optimised IR. Raises [Error] with
    the verifier's diagnostics if the produced IR is malformed (which
    indicates a front-end bug or an ill-typed kernel). *)
