(** A growable FIFO ring of ints with power-of-two capacity.

    The simulator's one ring structure. The engine's reservation queue
    holds instance slots in program order: imports append at the back,
    retirement pops from the front. The cache's lookup queue holds
    fragment slots in arrival order and compacts itself in place each
    pass with {!get}, {!set} and {!drop_front}. The buffer
    is an [int array], so a push is a plain store with no write
    barrier, and an index is masked into the ring rather than divided.
    The capacity doubles when full and never shrinks. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 64) is rounded up to a power of two. Raises
    [Invalid_argument] unless it is positive. *)

val length : t -> int

val is_empty : t -> bool

val push_back : t -> int -> unit

val pop_front : t -> int
(** Raises [Invalid_argument] when empty. *)

val peek_front : t -> int
(** Raises [Invalid_argument] when empty. *)

val get : t -> int -> int
(** [get r i] is the [i]-th element from the front, O(1). Raises
    [Invalid_argument] unless [0 <= i < length r]. *)

val set : t -> int -> int -> unit
(** Replace the [i]-th element from the front; same bounds as {!get}. *)

val drop_front : t -> int -> unit
(** [drop_front r k] removes the first [k] elements. Raises
    [Invalid_argument] unless [0 <= k <= length r]. *)

val iter_while : (int -> bool) -> t -> unit
(** Front to back, stopping the first time the callback returns
    [false]. The ring must not be mutated meanwhile. *)

val to_list : t -> int list
(** Front to back, mainly for tests. *)
