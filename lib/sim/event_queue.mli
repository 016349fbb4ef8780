(** Discrete-event priority queue.

    Events are ordered by (tick, insertion sequence); the insertion
    sequence makes simulation deterministic when several events share a
    tick, which then run first-in first-out. Ticks are abstract time
    units held in a native [int] — 2^62 picoseconds is over 50 days of
    simulated time — and the queue is a binary heap over parallel int
    and action arrays, so the hot schedule/pop path allocates nothing
    once the arrays have grown to the simulation's peak occupancy. Clock
    domains translate cycles into ticks. *)

type t

type event = private { tick : int; seq : int; action : unit -> unit }

val create : unit -> t

val schedule : t -> tick:int -> (unit -> unit) -> unit
(** [schedule q ~tick f] enqueues [f] to run at [tick], after every
    event already scheduled for the same tick. Scheduling in the past
    raises [Invalid_argument]. The past is any tick strictly before the
    tick of the most recently popped event. *)

val reserve : t -> int
(** Take the insertion number the next {!schedule} would use, without
    inserting anything: an event later inserted under it with
    {!schedule_reserved} sorts exactly where it would have sorted had it
    been scheduled now. *)

val schedule_reserved : t -> tick:int -> seq:int -> (unit -> unit) -> unit
(** [schedule_reserved q ~tick ~seq f] enqueues [f] under an insertion
    number taken earlier by {!reserve}. Each reserved number is inserted
    at most once. Raises [Invalid_argument] for a tick in the past. *)

val pop_action : t -> unit -> unit
(** Remove the next event and return its action; its tick becomes
    {!last_popped_tick}. Allocates nothing — the kernel's run loop uses
    this. Raises [Invalid_argument] if the queue is empty. *)

val pop : t -> event option
(** Remove and return the next event, or [None] if empty. Allocates the
    record; for inspection and tests. *)

val next_tick : t -> int
(** Tick of the next event, or [max_int] if the queue is empty; no
    option is allocated, for the kernel's run loop. *)

val next_seq : t -> int
(** Insertion number of the next event, or [max_int] if the queue is
    empty; with {!next_tick}, the position a reserved event is ordered
    against. *)

val is_empty : t -> bool

val last_popped_tick : t -> int
(** Tick of the most recently popped event; 0 before any pop. *)
