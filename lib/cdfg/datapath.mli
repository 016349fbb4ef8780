(** Static elaboration of a kernel into a datapath skeleton.

    This is the static half of gem5-SALAM's dual-CDFG design: the IR is
    walked once, every instruction is linked to a virtual functional
    unit, the register netlist is sized from the SSA values' bit widths,
    and the resulting structure fixes the accelerator's functional-unit
    inventory, area and leakage *independently of input data and of the
    memory hierarchy* (the property Tables I and II of the paper
    demonstrate). The dynamic engine later instantiates per-iteration
    copies of these nodes at run time.

    The default hardware profile maps each static instruction 1:1 onto a
    dedicated functional unit; [limits] caps the instantiated units per
    class, forcing the runtime scheduler to arbitrate (functional-unit
    reuse, as HLS does for expensive floating-point resources). *)

type node = {
  n_id : int;  (** dense index, program order *)
  instr : Salam_ir.Ast.instr;
  block : string;
  fu : Salam_hw.Fu.cls option;
  latency : int;  (** issue-to-commit cycles under the profile *)
}

type t = {
  func : Salam_ir.Ast.func;
  cfg : Salam_ir.Cfg.t;
  profile : Salam_hw.Profile.t;
  nodes : node array;
  fu_alloc : int Salam_hw.Fu.Map.t;  (** instantiated units per class *)
  register_bits : int;
}

val build :
  ?profile:Salam_hw.Profile.t ->
  ?limits:(Salam_hw.Fu.cls * int) list ->
  Salam_ir.Ast.func ->
  t

val nodes_of_block : t -> string -> node list
(** Nodes of one basic block, in program order. *)

val fu_demand : t -> int Salam_hw.Fu.Map.t
(** Static instruction count per functional-unit class (before
    limits). *)

val fu_count : t -> Salam_hw.Fu.cls -> int
(** Instantiated units of a class (after limits). *)

val static_area_um2 : t -> float
(** Datapath area: functional units + register netlist (memories are
    accounted by their own models). *)

val fu_leakage_mw : t -> float
(** Leakage of the instantiated functional units. *)

val reg_leakage_mw : t -> float
(** Leakage of the register netlist; independent of [limits]. *)

val static_leakage_mw : t -> float
(** [fu_leakage_mw t +. reg_leakage_mw t]. *)

val pp_summary : Format.formatter -> t -> unit
