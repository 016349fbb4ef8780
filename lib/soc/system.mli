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

val align : t -> int64
(** Advance the idle kernel to the next hyperperiod multiple (the least
    common multiple of every clock period created so far) and return
    it. Kernel-invocation boundaries are aligned this way so a restored
    system and an uninterrupted one agree on every clock's phase. Raises
    [Invalid_argument] if events are still scheduled. *)

val snapshot : t -> Salam_ir.Memory.snapshot * int64
(** The architectural state at the current tick: the backing memory
    image (buffers, MMRs, allocation brk) and the tick. Raises
    [Invalid_argument] unless the kernel is {!Salam_sim.Kernel.idle}.
    Every in-flight request, MSHR fill, crossbar packet or DRAM
    completion holds a scheduled event, so an idle kernel means every
    device has drained and the image is the whole state. *)

val restore : t -> Salam_ir.Memory.snapshot -> tick:int64 -> unit
(** Restore an image into this system and jump time to [tick]. Only a
    freshly built system is accepted — idle, no event executed yet —
    so its caches are cold, its channels free and its statistics zero,
    and the run's stats cover exactly the post-restore epoch. Raises
    [Invalid_argument] otherwise, or if the image's size differs from
    the backing memory's. The system must be built the same way as the
    one that took the image: regions come from one bump allocator in
    build order, so equal buffer bases pin the address map. *)

val run : ?max_ticks:int64 -> t -> int64
(** Drain all scheduled events on the sequential event kernel
    ({!Salam_sim.Kernel.run}); returns the final tick. Every system, with
    one accelerator or many, runs this way. The [SALAM_DOMAINS]
    environment variable does not apply here: it only sets how many
    design points a sweep simulates at once ([Salam.default_domains]). *)

val elapsed_seconds : t -> float
(** Simulated seconds at the current tick (1 tick = 1 ps). *)
