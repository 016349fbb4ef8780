(** Hardware profiles: timing, power and area characteristics of
    functional units and registers.

    The default profile plays the role of gem5-SALAM's validated 40 nm
    hardware profile: latencies follow the paper (3-stage floating-point
    adders and multipliers, single-cycle integer logic) and the energy,
    leakage and area constants are representative standard-cell values.
    Users can derive modified profiles for custom hardware, exactly as
    the paper allows. *)

type fu_spec = {
  latency : int;  (** cycles from issue to commit *)
  pipelined : bool;  (** can accept a new op every cycle *)
  area_um2 : float;
  leakage_mw : float;  (** static power per instantiated unit *)
  dynamic_pj : float;  (** energy per operation *)
}

type t = {
  profile_name : string;
  node_nm : int;  (** technology node the constants were characterized at *)
  cycle_time_ns : float;  (** cycle time the latencies were characterized at *)
  specs : fu_spec Fu.Map.t;
  reg_area_um2_per_bit : float;
  reg_leak_mw_per_bit : float;
  reg_read_pj_per_bit : float;
  reg_write_pj_per_bit : float;
}

val default_40nm : t

val equal : t -> t -> bool
(** Structural equality (spec maps compared by contents, not tree shape). *)

val spec : t -> Fu.cls -> fu_spec

val with_latency : t -> Fu.cls -> int -> t

val instr_latency : t -> Salam_ir.Ast.instr -> int
(** Latency of an instruction under this profile: its functional unit's
    latency, or the zero-hardware default (1 cycle for control and phi,
    0 for pure wiring like bitcasts). *)
