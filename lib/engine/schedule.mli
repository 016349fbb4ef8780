(** Schedule-specialization pre-pass for the engine.

    Compiles a {!Salam_cdfg.Datapath.t} into dense, branch-free replay
    templates: one [row] array per (block, predecessor) pair, with
    operand constants pre-truncated, phi incomings pre-resolved and
    WAR-reader registrations precomputed. The engine's compiled import
    path walks these arrays instead of re-deriving the same decisions
    from the IR for every dynamic block instance.

    The pass also partitions each block into regions whose issue order
    is provably independent of runtime data: loads, stores, conditional
    branches and returns break a region (variable-latency memory
    responses and data-dependent control are exactly what the engine
    must still arbitrate dynamically); compute, GEPs, phis, intrinsic
    calls and unconditional branches stay inside one. Region structure
    is only reported, through opt-in [engine.compile] trace events; the
    engine's issue scan does not consult it. Replay is bit-identical to
    the dynamic path by construction. *)

type plan =
  | Pimm of int64  (** constant operand: its payload, already truncated *)
  | Preg of { var : Salam_ir.Ast.var; read_pj : float }
      (** register operand; [read_pj] is the register-file read energy
          charged when capturing from a committed writer *)

type kind = Kcompute | Kload | Kstore

type row = {
  r_node : Salam_cdfg.Datapath.node;
  r_plans : plan array;
  r_def : Salam_ir.Ast.var option;
  r_kind : kind;
  r_readers : Salam_ir.Ast.var array;
      (** non-parameter register operands in source order, duplicates
          kept — the WAR reader registrations this instance performs *)
  r_region : int;  (** region ordinal within the block; -1 on boundaries *)
}

type region = {
  rg_start : int;  (** index of the first row in the region *)
  rg_len : int;
  rg_boundary : string;
      (** what ended the region: ["load"], ["store"], ["cond_br"],
          ["ret"], or ["end"] (block ends in an unconditional branch) *)
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

val regions : t -> string -> region array

val blocks : t -> string list
(** Block labels in program order. *)

val region_count : t -> int

val region_ops : t -> int
(** Total operations inside regions (boundary ops excluded). *)

val max_region_ops : t -> int

val boundary_counts : t -> (string * int) list
(** Region boundaries by reason (["load"], ["store"], ["cond_br"],
    ["ret"]), in fixed reason order. *)

val emit_trace : t -> Salam_obs.Trace.sink -> tick:int64 -> comp:string -> unit
(** Emit one [engine.compile] event per region plus a summary event.
    No-op unless the sink opts in to {!Salam_obs.Trace.Engine_compile}. *)
