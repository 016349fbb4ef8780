(** A bounded map from byte strings, read where they lie, to 64-bit
    values.

    The daemon keeps one per connection: the request bytes it has
    already resolved, mapped to the fingerprint they resolved to. A key
    is the [len] bytes of a string from [off], or a pair of such ranges
    (two keys are equal when both ranges are), hashed and compared in
    place; it is copied only when added. The map holds at most
    {!capacity} entries, and adding to a full map empties it first. *)

type t

val capacity : int
(** 1024 entries. *)

val max_key : int
(** The longest key kept, 1024 bytes: {!add} passes over a longer one. *)

val create : unit -> t
(** Allocates nothing until the first {!add}. *)

val size : t -> int
(** Entries held: at most {!capacity}. *)

val find : t -> string -> int -> int -> int
(** [find t s off len]: the entry whose key is the [len] bytes of [s]
    from [off], or [-1]. *)

val find2 : t -> string -> int -> int -> int -> int -> int
(** [find2 t s off1 len1 off2 len2]: the entry whose key is the pair of
    the [len1] bytes of [s] from [off1] and the [len2] bytes from
    [off2], or [-1]. A single range is the pair of it and no bytes. *)

val value : t -> int -> int64
(** The value of an entry {!find} or {!find2} returned, until the next
    {!add}. *)

val add : t -> string -> int -> int -> int64 -> unit
(** Add a key and its value; a key already held keeps its value. *)

val add2 : t -> string -> int -> int -> int -> int -> int64 -> unit
