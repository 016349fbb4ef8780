(** Communications interface — the accelerator's window onto the system.

    Mirrors gem5-SALAM's CommInterface (Fig 5 of the paper): it owns the
    accelerator's memory-mapped registers, routes the runtime engine's
    read/write queues onto the attached memory ports (private SPM, cache,
    cluster crossbar) by address range, supports stream-mapped ranges
    whose loads and stores become FIFO pops and pushes, and raises the
    completion interrupt. Interfaces are interchangeable without touching
    the compute unit: the engine only ever sees the {!Salam_engine.Engine.mem_iface}
    this module builds. *)

type t

val create :
  System.t -> name:string -> clock:Salam_sim.Clock.t -> mmr_words:int -> t
(** Allocates an MMR region of [mmr_words] 64-bit registers in the
    backing store. *)

val mmr_base : t -> int64

val mmr_size : t -> int

val read_mmr : t -> int -> int64
(** Functional (zero-time) register read, index in words. *)

val write_mmr : t -> int -> int64 -> unit

val mmr_port : t -> Salam_mem.Port.t
(** Timing port covering the MMR range, for mapping into a crossbar so
    the host and other accelerators can program this device. A write
    reaching the control register fires the control callback. *)

val on_control_write : t -> (int64 -> unit) -> unit
(** Called when a timing write lands on word 1 (the control register),
    with the value written. *)

val set_interrupt : t -> (unit -> unit) -> unit
(** Wire the device's interrupt line. *)

val raise_interrupt : t -> unit

val add_route : t -> base:int64 -> size:int -> Salam_mem.Port.t -> unit
(** Engine accesses in this range go to the port. *)

val set_default_route : t -> Salam_mem.Port.t -> unit

val map_stream_pop : t -> base:int64 -> size:int -> Salam_mem.Stream_buffer.t -> unit
(** Engine loads in this range pop the FIFO instead of accessing
    memory. *)

val map_stream_push : t -> base:int64 -> size:int -> Salam_mem.Stream_buffer.t -> unit

val mem_iface : t -> Salam_engine.Engine.mem_iface

(** Standard MMR word layout used by {!Accelerator} and the drivers. *)
module Layout : sig
  val status : int  (** 0 idle / 1 running / 2 done *)

  val control : int  (** write 1 to start *)

  val ret_value : int

  val arg : int -> int  (** argument registers start at word 3 *)
end
