(** Clock domains.

    Devices run on clock domains with independent frequencies, as in the
    paper where the communications interface and compute unit clocks are
    configurable separately. A domain converts between cycles and kernel
    ticks (1 tick = 1 ps). *)

type t

val create : Kernel.t -> freq_mhz:float -> t
(** [create kernel ~freq_mhz] makes a domain. Frequencies must be
    positive; the period is rounded to the nearest tick. *)

val period_ticks : t -> int64

val cycle_of_tick : t -> int64 -> int64
(** Cycle index containing the given tick. *)

val current_cycle : t -> int64

val current_cycle_i : t -> int
(** {!current_cycle} as a native int — no boxing; for hot paths. *)

val schedule_cycles : t -> cycles:int -> (unit -> unit) -> unit
(** [schedule_cycles t ~cycles f] runs [f] on the clock edge [cycles]
    cycles after the next edge at or following the current tick.
    [cycles = 0] means the next edge (or now, if now is an edge). *)

val edge_tick_i : t -> cycles:int -> int
(** The tick at which {!schedule_cycles} with the same [cycles] would
    run an action. *)

val kernel : t -> Kernel.t

val seconds_of_cycles : t -> int64 -> float
