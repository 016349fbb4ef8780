(** Host CPU driver model.

    A scripted ARM-class host that programs accelerators over the
    interconnect exactly as the paper's bare-metal drivers do: timed
    MMR writes, interrupt waits, CPU-driven copies and DMA programming.
    Every operation takes a continuation; drivers are written in
    continuation-passing style and the simulation advances between
    steps. *)

type t

val create : System.t -> clock_mhz:float -> port:Salam_mem.Port.t -> t
(** [port] is the host's window into the memory system (usually the
    global crossbar). *)

val delay_cycles : t -> int -> k:(unit -> unit) -> unit

val memcpy : t -> dst:int64 -> src:int64 -> len:int -> k:(unit -> unit) -> unit
(** CPU-driven copy in cache-line-sized chunks — the slow path that
    motivates DMA. *)

val write_args : t -> Comm_interface.t -> args:int64 list -> k:(unit -> unit) -> unit
(** Store each argument into the device's argument MMRs. *)

val start_device : t -> Comm_interface.t -> k:(unit -> unit) -> unit
(** Write 1 to the control register. The device starts when the timing
    write lands. *)

val run_kernel :
  t -> Comm_interface.t -> args:int64 list -> k:(unit -> unit) -> unit
(** [write_args] + [start_device], then resume when the device next
    raises its interrupt. *)
