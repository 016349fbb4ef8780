(** Int slots for per-request state.

    A pool hands out slot numbers below its {!capacity}. Whoever takes
    the slots keeps each slot's state in arrays of its own, indexed by
    slot, and widens them with {!fit} when a slot lands past their end.
    Free slots sit on an int stack, so taking and releasing one
    allocates nothing once the pool has grown (doubling) to its peak
    occupancy. The memory devices' request tables, the stream FIFOs'
    waiting pushes and pops, the comm interface's stream pops and the
    ports' parked completions all take their slots here. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16) must be positive. *)

val capacity : t -> int

val take : t -> int
(** The slot released last, or, with every slot taken, the first slot
    of the doubled capacity. *)

val release : t -> int -> unit

val fit : t -> 'a array -> 'a -> 'a array
(** [fit p a fill] is [a] when it has at least [capacity p] entries,
    else a copy of [a] widened to [capacity p], the new entries
    [fill]. *)
