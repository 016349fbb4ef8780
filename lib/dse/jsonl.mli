(** Minimal flat-JSON-object codec for the JSONL result store.

    The sealed toolchain has no JSON library, and the store only needs
    flat objects of scalars — so this codec supports exactly that: one
    object per line, values limited to strings, 64-bit integers, floats
    and booleans. Floats are rendered with 17 significant digits, which
    round-trips IEEE doubles exactly — the store's bit-identity
    guarantee rests on it. Non-finite floats, which JSON cannot spell as
    numbers, are written as their ["%h"] strings. *)

type value = Int of int64 | Float of float | Bool of bool | Str of string

val add_member : Buffer.t -> first:bool -> string -> value -> unit
(** Append one ["key":value] member: opened with ['{'] when [first],
    else preceded by [',']. Close the object with ['}'] yourself. *)

val encode : (string * value) list -> string
(** One JSON object on one line (no trailing newline). *)

val iter_fields :
  string -> (string -> int -> int -> value -> unit) -> (unit, string) result
(** Parse one line in a single pass, calling [f src off len value] on
    each member in line order, duplicates included. The member's key is
    the [len] bytes of [src] from [off]: [src] is the line itself, so no
    key is copied, unless the key has escapes, when it is the unescaped
    key alone. Compare keys with {!key_is}. String values without
    escapes are sliced out of the line. Number tokens must follow
    JSON's number grammar: a bare integer is an [Int], read in place
    (out of int64 range is an error, and ["-0"] is [Float (-0.)] so its
    sign survives), anything else a [Float]. Nested objects and arrays,
    [null] and OCaml-only literals (["1_0"], ["0x1p3"], bare [nan]) are
    errors naming the offset. [f] may already have seen the members
    before a syntax error. *)

val key_is : string -> int -> int -> string -> bool
(** [key_is src off len k]: the key [f] was handed is [k]. *)

val find_key : string array -> string -> int -> int -> int
(** [find_key keys src off len]: the position in [keys] of the key [f]
    was handed, or [-1]. *)

val to_float : value -> float option
(** A float member: a [Float], an integral [Int], or one of the ["%h"]
    strings the encoder writes for non-finite floats (["nan"], ["-nan"],
    ["infinity"], ["-infinity"]). *)

val to_int : int64 -> int option
(** The integer as an OCaml [int], or [None] when it is outside
    [min_int .. max_int]. *)
