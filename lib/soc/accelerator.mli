(** Accelerator = compute unit (runtime engine) + communications
    interface.

    Construction wires a fresh communications interface on the
    accelerator's own clock domain; the kernel's static datapath and the
    engine that runs on it are elaborated at first use (normally the
    first launch), so a system only warmed up through the interpreter
    never builds them. Memory attachments (private SPM, cache,
    cluster crossbar, stream maps) are added afterwards through
    {!comm} — interfaces are interchangeable without touching the
    engine, the decoupling the paper emphasises.

    An accelerator can be started two ways:
    - directly with {!launch} (what a bare-metal driver does after
      writing the argument MMRs), or
    - by a timing write of 1 to its control MMR through {!Comm_interface.mmr_port},
      which reads the argument registers and starts the engine — this is
      how the host and other accelerators trigger it over the
      interconnect. *)

type t

val create :
  System.t ->
  name:string ->
  clock_mhz:float ->
  ?profile:Salam_hw.Profile.t ->
  ?fu_limits:(Salam_hw.Fu.cls * int) list ->
  ?engine_config:Salam_engine.Engine.config ->
  Salam_ir.Ast.func ->
  t

val name : t -> string

val comm : t -> Comm_interface.t

val write_end_state : t -> Salam_ir.Bits.t option -> unit
(** The MMR writes a finished run makes: the return value (if any, floats
    as their IEEE bits) into the return-value MMR, then status done.
    {!launch} makes them at completion; the interpreter warm-up makes
    them after each functional invocation, so a warmed-up system's
    memory-mapped words match a detailed run's. *)

val engine : t -> Salam_engine.Engine.t

val datapath : t -> Salam_cdfg.Datapath.t

val clock : t -> Salam_sim.Clock.t

val launch : t -> args:Salam_ir.Bits.t list -> on_done:(Salam_ir.Bits.t option -> unit) -> unit
(** Start the engine directly. Sets the status MMR to running, and on
    completion makes {!write_end_state}'s writes, raises the interrupt
    and calls [on_done]. *)

val add_ordered_range : t -> base:int64 -> size:int -> unit
(** Mark a window (stream FIFO mapping) as strictly-ordered device
    memory for this accelerator's engine. *)

val stats : t -> Salam_engine.Engine.run_stats
