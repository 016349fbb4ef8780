(** Simulation kernel.

    A [t] owns the global event queue and the notion of current time. All
    devices in a simulated system share one kernel, mirroring gem5's
    global event queue. One tick is one picosecond by convention, so a
    1 GHz clock has a 1000-tick period. *)

type t

val create : unit -> t

val now : t -> int64
(** Current simulation tick. *)

val now_i : t -> int
(** {!now} as a native int — no boxing; for hot paths. *)

val trace : t -> Salam_obs.Trace.sink option
(** The system-wide trace sink, if tracing is enabled. Components
    capture this once at construction; [None] (the default) makes every
    emission site a single always-not-taken branch. *)

val set_trace : t -> Salam_obs.Trace.sink option -> unit
(** Install (or remove) the trace sink. Must be called before the
    traced components are constructed — they capture the sink at
    creation time. *)

val schedule_at : t -> tick:int64 -> (unit -> unit) -> unit

val schedule_at_i : t -> tick:int -> (unit -> unit) -> unit
(** {!schedule_at} with a native-int tick — the allocation-free path
    clock domains use. *)

val reserve_seq : t -> int
(** {!Event_queue.reserve} on the kernel's queue. *)

val schedule_reserved : t -> tick:int -> seq:int -> (unit -> unit) -> unit
(** {!Event_queue.schedule_reserved} on the kernel's queue. *)

(** {2 Sleepers}

    A clocked component whose next ticks provably change nothing can
    sleep instead of queueing them. While it sleeps, the kernel stands
    in for its chain of ticks: before each event it passes every
    virtual tick that sorts before it, reserving the successor's
    insertion number exactly when the chained event would have, so
    every other event runs in the same (tick, seq) order as with the
    real ticks. At its wake tick, or when {!wake} is called, the
    virtual tick becomes a real event at its position. *)

type sleeper

val add_sleeper : t -> period:int -> sleeper
(** Register a component whose ticks chain every [period] ticks.
    Allocates once; sleeping and waking allocate nothing. *)

val sleep : t -> sleeper -> tick:int -> seq:int -> wake:int -> (unit -> unit) -> unit
(** [sleep k s ~tick ~seq ~wake action] puts the sleeper's next tick,
    [action] at [tick] under the insertion number [seq] (from
    {!reserve_seq}), to sleep. Its chain turns real on the first tick at
    [wake] ([max_int] for never; only {!wake} ends that sleep). Raises
    [Invalid_argument] if it is already asleep. *)

val wake : t -> sleeper -> int
(** Turn the sleeper's virtual tick into a real event at its current
    position and return that tick. Called from an event, every virtual
    tick before that event has been passed, so the position is where
    the chained tick would be pending. Raises [Invalid_argument] if it
    is not asleep. *)

val run : ?max_ticks:int64 -> t -> int64
(** Drain the event queue, executing events in order and passing the
    virtual ticks of sleepers. Stops when the next event lies beyond
    [max_ticks], or when the queue is empty and no sleeper has a wake
    tick (a component asleep without one waits on an answer that can no
    longer come). Returns the tick of the last executed event. *)

val idle : t -> bool
(** True when the event queue is empty and no component sleeps —
    nothing is in flight anywhere in the system. Every queued device
    request holds a scheduled event or a sleeper, so an idle kernel
    means every device has drained: a system snapshot is taken only
    while idle, and restored only into an idle system that has executed
    no event. *)

val advance_to : t -> tick:int64 -> unit
(** Jump current time forward to [tick] without executing anything. Only
    legal while {!idle} and forward in time; raises [Invalid_argument]
    otherwise. Used to align kernel-invocation boundaries to clock
    hyperperiod multiples and to restore snapshots. *)

val events_executed : t -> int
(** Total number of events executed so far; a cheap progress/cost
    metric used by the simulator-speed benchmarks. Passed virtual ticks
    are not events and are not counted. *)
