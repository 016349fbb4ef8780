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

val run : ?max_ticks:int64 -> t -> int64
(** Drain the event queue, executing events in order. Stops when the
    queue is empty or when the next event lies beyond [max_ticks].
    Returns the tick of the last executed event. *)

val idle : t -> bool
(** True when the event queue is empty — nothing is in flight anywhere
    in the system. Checkpoints may only be captured while idle. *)

val advance_to : t -> tick:int64 -> unit
(** Jump current time forward to [tick] without executing anything. Only
    legal while {!idle} and forward in time; raises [Invalid_argument]
    otherwise. Used to align kernel-invocation boundaries to clock
    hyperperiod multiples and to restore checkpoints. *)

val events_executed : t -> int
(** Total number of events executed so far; a cheap progress/cost
    metric used by the simulator-speed benchmarks. *)
