(** Doubly-linked lists of int slots, with the links in flat int arrays.

    The engine keeps its wake-up (ready) queues and its in-flight memory
    operations in these lists. A member is a slot number — an
    instance's index in the engine's instance table — and the list owns
    one [next], one [prev] and one sort-key entry per slot. Every link
    update is an int store into an int array, so unlike a list of heap
    nodes no update runs OCaml's write barrier, and nothing allocates
    once {!reserve} has sized the arrays.

    A slot is in the list or not: {!linked} is O(1). Walks use {!head}
    and {!next} and may stop early; [next] reads the link at call time,
    so capture the successor before removing a slot. {!nil} ends a
    walk. *)

type t

val nil : int
(** [-1]: no slot. *)

val create : unit -> t
(** An empty list with room for no slots yet. *)

val reserve : t -> int -> unit
(** [reserve l n] makes slots [0, n) usable. Grows geometrically; slots
    already linked keep their links. *)

val length : t -> int

val is_empty : t -> bool

val linked : t -> int -> bool

val key : t -> int -> int
(** The slot's sort key, as set by {!sorted_insert}. *)

val push_back : t -> int -> unit
(** Raises [Invalid_argument] if the slot is already linked. *)

val remove : t -> int -> unit
(** Unlink the slot; O(1). Raises [Invalid_argument] if not linked. *)

val sorted_insert : t -> key:int -> int -> unit
(** Link the slot after the rightmost member with a smaller key, so a
    list built only by [sorted_insert] stays sorted by key. The walk
    starts at the previous [sorted_insert]'s slot when that is still
    linked, else at the tail: inserts that arrive in nearly sorted
    bursts cost O(1) each. *)

val rewind : t -> cursor:int -> int -> int
(** [rewind l ~cursor s] is the position a forward scan standing at
    [cursor] ({!nil} once past the end) must resume from so that it
    still visits [s], a slot just linked: [s] when it sorts before
    [cursor] or the scan had finished, [cursor] otherwise. *)

val head : t -> int

val next : t -> int -> int

val to_list : t -> int list
(** Head to tail, mainly for tests. *)
