(** Growable ring-buffer deque with O(1) push, pop and length.

    The engine's reservation queue is the motivating user: blocks of
    dynamic instructions are appended at the tail on import and retired
    from the head, and the occupancy check needs a tracked count rather
    than an O(n) [List.length]. The buffer doubles when full and never
    shrinks; indices wrap, so long-running simulations reuse the same
    storage. Elements are stored unboxed, so pushes and pops allocate
    nothing once the ring has reached its peak size. The capacity is
    always a power of two, so an index is masked into the ring rather
    than divided: the SPM's arbitration reads the queue with {!get} every
    cycle. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty deque. [capacity] (default 64) is the initial ring size,
    rounded up to a power of two; it grows on demand. Raises
    [Invalid_argument] unless it is positive. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val push_front : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val peek_front : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val peek_back : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val get : 'a t -> int -> 'a
(** [get d i] is the [i]-th element from the front, O(1). Raises
    [Invalid_argument] unless [0 <= i < length d]. *)

val set : 'a t -> int -> 'a -> unit
(** Replace the [i]-th element from the front; same bounds as {!get}.
    With [get] and {!drop_front}, lets a caller compact the deque in
    place without popping and re-pushing every element. *)

val drop_front : 'a t -> int -> unit
(** [drop_front d k] removes the first [k] elements. Raises
    [Invalid_argument] unless [0 <= k <= length d]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back iteration. The deque must not be mutated during
    iteration. *)

val iter_while : ('a -> bool) -> 'a t -> unit
(** Front-to-back iteration that stops the first time the callback
    returns [false]. The engine's check-mode walks use it: the stall
    classification reference stops once every stall source has been
    seen. *)

val to_list : 'a t -> 'a list
(** Front-to-back, mainly for tests. *)

val clear : 'a t -> unit
