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

type edge
(** An import along one CFG edge, resolved at {!compile}: the target
    block's rows for that predecessor. *)

type t

val compile : Salam_cdfg.Datapath.t -> t

val edge : t -> label:string -> pred:string -> edge
(** The import of block [label] along the edge from [pred]. {!compile}
    resolves every edge of the CFG (and the entry) this way once; the
    engine never looks a label up while it runs. *)

val successors : t -> Salam_cdfg.Datapath.node -> edge array
(** A [Br] node's edge; a [Cond_br] node's true then false edges; empty
    for any other node. *)

val entry : t -> edge
(** The entry block along the synthetic ["<entry>"] edge. *)

val edge_size : edge -> int
(** Rows of the import: its reservation-room requirement. *)

val edge_rows : edge -> row array
(** Raises [Invalid_argument] with the dynamic path's exact message when
    the edge is malformed (unknown block, or a phi without an incoming
    value for the predecessor). *)

val edge_phis : edge -> int
(** The number of leading phi rows whose operands must all be captured
    before any of them registers its destination — LLVM phis are
    parallel copies, so a phi that reads an earlier phi of its block
    reads that phi's old value. 0 when no phi of the block reads
    another, so capture order cannot matter. *)
