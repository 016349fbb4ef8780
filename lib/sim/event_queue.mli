(** Discrete-event priority queue.

    Events are ordered by (tick, priority, insertion sequence); the
    insertion sequence makes simulation deterministic when several events
    share a tick and priority. Ticks are abstract time units held in a
    native [int] — 2^62 picoseconds is over 50 days of simulated time —
    so the hot schedule/compare/pop path never boxes; clock domains
    translate cycles into ticks. *)

type t

type event = private {
  tick : int;
  priority : int;
  seq : int;
  action : unit -> unit;
}

val create : unit -> t

val schedule : t -> tick:int -> ?priority:int -> (unit -> unit) -> unit
(** [schedule q ~tick f] enqueues [f] to run at [tick]. Lower [priority]
    runs first within a tick (default 0). Scheduling in the past raises
    [Invalid_argument]. The past is any tick strictly before the tick of
    the most recently popped event. *)

val pop : t -> event option
(** Remove and return the next event, or [None] if empty. *)

val peek_tick : t -> int option

val next_tick : t -> int
(** Tick of the next event, or [max_int] if the queue is empty —
    [peek_tick] without the option allocation, for the kernel's run
    loop. *)

val is_empty : t -> bool

val size : t -> int

val last_popped_tick : t -> int
(** Tick of the most recently popped event; 0 before any pop. *)
