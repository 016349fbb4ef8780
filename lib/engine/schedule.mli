(** Schedule-specialization pre-pass for the engine.

    Compiles a {!Salam_cdfg.Datapath.t} into dense, branch-free replay
    templates: one [row] array per (block, predecessor) pair, with
    operand constants pre-truncated, phi incomings pre-resolved and
    WAR-reader registrations precomputed. The engine's compiled import
    path walks these arrays instead of re-deriving the same decisions
    from the IR for every dynamic block instance. Replay is
    bit-identical to the dynamic path by construction. *)

type plan =
  | Pimm of int64  (** constant operand: its payload, already truncated *)
  | Preg of { var : Salam_ir.Ast.var; read_pj : float }
      (** register operand; [read_pj] is the register-file read energy
          charged when capturing from a committed writer *)

type row = {
  r_node : Salam_cdfg.Datapath.node;
  r_plans : plan array;
  r_def : Salam_ir.Ast.var option;
  r_readers : Salam_ir.Ast.var array;
      (** non-parameter register operands in source order, duplicates
          kept — the WAR reader registrations this instance performs *)
}

type block_schedule

type t

val compile : Salam_cdfg.Datapath.t -> t

val find : t -> string -> block_schedule
(** Raises [Invalid_argument] with the same message as the dynamic
    import path for an unknown block label. *)

val block_size : block_schedule -> int
(** Rows per variant — the reservation-room requirement of an import. *)

val rows : block_schedule -> pred:string -> row array
(** Replay template for an import along [pred]. Raises
    [Invalid_argument] with the dynamic path's exact message when a phi
    lacks an incoming for [pred]. *)
