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

val add_key : Buffer.t -> first:bool -> string -> unit
(** {!add_member}'s ["key":] alone: write the value yourself. *)

val has_escapes : string -> bool
(** The string holds a byte the encoder escapes (['"'], ['\\'] or a
    control character). *)

val add_int : Buffer.t -> int -> unit
(** [string_of_int n], written straight into the buffer. *)

val encode : (string * value) list -> string
(** One JSON object on one line (no trailing newline). *)

type kind =
  | Integer  (** a bare integer within the int64 range *)
  | Number  (** any other JSON number, ["-0"] included *)
  | True
  | False
  | String

val iter_fields :
  string ->
  (string -> int -> int -> kind -> string -> int -> int -> unit) ->
  (unit, string) result
(** Parse one line in a single pass, calling [f ksrc koff klen kind src
    off len] on each member in line order, duplicates included. Nothing
    is copied or converted: the member's key is the [klen] bytes of
    [ksrc] from [koff], and its value the [len] bytes of [src] from
    [off], the token of [kind] (a string's bytes between its quotes).
    [ksrc] and [src] are the line itself, unless that string has
    escapes, when it is the unescaped string alone. Compare keys with
    {!key_is} and read values with {!int_at}, {!int64_at} and
    {!float_at}. Number tokens must follow JSON's number grammar: a bare
    integer is an [Integer] (out of int64 range is an error), anything
    else, ["-0"] included so its sign survives, a [Number]. Nested
    objects and arrays, [null] and OCaml-only literals (["1_0"],
    ["0x1p3"], bare [nan]) are errors naming the offset. [f] may already
    have seen the members before a syntax error. *)

val key_is : string -> int -> int -> string -> bool
(** [key_is src off len k]: the [len] bytes of [src] from [off] are [k]. *)

val find_key : string array -> string -> int -> int -> int
(** [find_key keys src off len]: the position in [keys] of the key [f]
    was handed, or [-1]. *)

exception Out_of_range

val int_at : string -> int -> int -> int
(** An [Integer] token as an OCaml [int]. Raises {!Out_of_range} when it
    is outside [min_int .. max_int]. *)

val int64_at : string -> int -> int -> int64
(** An [Integer] token. *)

exception Not_a_float

val float_at : kind -> string -> int -> int -> float
(** A float member: a [Number], an [Integer] (as [Int64.to_float]), or
    one of the ["%h"] strings the encoder writes for non-finite floats
    (["nan"], ["-nan"], ["infinity"], ["-infinity"]). Raises
    {!Not_a_float} on any other token. *)
