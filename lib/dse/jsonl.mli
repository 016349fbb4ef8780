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

val iter_fields : string -> (string -> value -> unit) -> (unit, string) result
(** Parse one line in a single pass, calling [f key value] on each
    member in line order, duplicates included. Strings without escapes
    are sliced out of the line. Number tokens must follow JSON's number
    grammar: a bare integer is an [Int] (out of int64 range is an
    error, and ["-0"] is [Float (-0.)] so its sign survives), anything
    else a [Float]. Nested objects and arrays, [null] and OCaml-only
    literals (["1_0"], ["0x1p3"], bare [nan]) are errors naming the
    offset. [f] may already have seen the members before a syntax
    error. *)

val decode : string -> ((string * value) list, string) result
(** {!iter_fields} collected into a list, in line order. *)

val get_int : (string * value) list -> string -> int64 option
(** The first member named [k], if it is an [Int]; likewise below. *)

val get_bool : (string * value) list -> string -> bool option

val get_str : (string * value) list -> string -> string option

val to_float : value -> float option
(** A float member: a [Float], an integral [Int], or one of the ["%h"]
    strings the encoder writes for non-finite floats (["nan"], ["-nan"],
    ["infinity"], ["-infinity"]). *)

val to_int : int64 -> int option
(** The integer as an OCaml [int], or [None] when it is outside
    [min_int .. max_int]. *)
