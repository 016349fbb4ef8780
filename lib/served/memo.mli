(** A bounded map from byte strings, read where they lie, to 64-bit
    values.

    The daemon keeps one per connection: the request bytes it has
    already resolved, mapped to the fingerprint they resolved to. A key
    is the [len] bytes of a string from [off], hashed and compared in
    place; it is copied only when added. The map holds at most
    {!capacity} entries, and adding to a full map empties it first. *)

type t

val capacity : int
(** 1024 entries. *)

val create : unit -> t
(** Allocates nothing until the first {!add}. *)

val size : t -> int
(** Entries held: at most {!capacity}. *)

val find : t -> string -> int -> int -> int
(** [find t s off len]: the entry whose key is the [len] bytes of [s]
    from [off], or [-1]. *)

val value : t -> int -> int64
(** The value of an entry {!find} returned, until the next {!add}. *)

val add : t -> string -> int -> int -> int64 -> unit
(** Add a key and its value; a key already held keeps its value, and a
    key longer than 1024 bytes is not kept. *)
