(** IR well-formedness checking.

    [func] returns the list of problems found (empty means valid):
    - every block ends in exactly one terminator, which is last;
    - branch targets exist;
    - phis appear only at the top of a block, with one incoming value per
      predecessor;
    - every register has a single definition, and every use is dominated
      by its definition (SSA);
    - operand types agree with the instruction's typing rules. *)

type problem = { in_func : string; in_block : string; message : string }

val func : Ast.func -> problem list

val check_exn : Ast.modul -> unit
(** Raises [Failure] with all problems pretty-printed if any. *)

val pp_problem : Format.formatter -> problem -> unit
