(** Full-system container.

    Owns the event kernel, the statistics tree and the shared functional
    backing store that every timing device reads and writes through.
    Device address regions are carved out of the backing store by a bump
    allocator, so the system's address map is constructed as devices are
    added — the role of gem5-SALAM's system configuration file. *)

type t

val create : ?trace:Salam_obs.Trace.sink -> unit -> t
(** Backing store: 64 MiB. [trace] installs a system-wide trace
    sink on the kernel before any component is built, so everything
    constructed afterwards emits into it. *)

val kernel : t -> Salam_sim.Kernel.t

val stats : t -> Salam_sim.Stats.group

val backing : t -> Salam_ir.Memory.t

val clock : t -> mhz:float -> Salam_sim.Clock.t
(** Creates a clock domain and records its period for {!align}. *)

val alloc_region : t -> bytes:int -> int64
(** 64-byte-aligned region of the backing store. *)

val register_agent : t -> Salam_sim.Checkpoint.agent -> unit
(** Add a component's checkpoint agent. Components register themselves
    at construction; the backing memory's agent is pre-registered by
    {!create}. Agent names must be unique per system. *)

val align : t -> int64
(** Advance the idle kernel to the next hyperperiod multiple (the least
    common multiple of every clock period created so far) and return
    it. Kernel-invocation boundaries are aligned this way so a restored
    system and an uninterrupted one agree on every clock's phase. Raises
    [Invalid_argument] if events are still scheduled. *)

val checkpoint : t -> roadmark:string -> Salam_sim.Checkpoint.t
(** Capture every registered agent's architectural state at the current
    tick. The system must be quiescent (event queue empty); raises
    {!Salam_sim.Checkpoint.Invalid} otherwise, as do agents whose
    components still hold in-flight state. *)

val restore : t -> Salam_sim.Checkpoint.t -> unit
(** Restore a checkpoint into this system: strict section/agent
    matching, then jump time to the checkpoint's tick and reset the
    statistics tree so the run's stats cover exactly the post-restore
    epoch. The system must be freshly built or quiescent, and shaped
    identically to the one that captured the checkpoint. *)

val run : ?max_ticks:int64 -> t -> int64
(** Drain all scheduled events on the sequential event kernel
    ({!Salam_sim.Kernel.run}); returns the final tick. Every system, with
    one accelerator or many, runs this way. The [SALAM_DOMAINS]
    environment variable does not apply here: it only sets how many
    design points a sweep simulates at once ([Salam.default_domains]). *)

val elapsed_seconds : t -> float
(** Simulated seconds at the current tick (1 tick = 1 ps). *)
