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

(** {2 Reading a line}

    A {!cursor} walks one line member by member, in a single pass.
    {!member} reads the next member whatever its form; a decoder that
    knows the canonical order checks the member it expects with {!head}
    and reads its value with {!value}, and falls back to {!member} when
    the line is not where that order puts it. Both leave the member's
    value in the same fields, and a syntax error raises {!Syntax} with
    the same message and offset whichever read it.

    Nothing is copied or converted: compare keys with {!key_is} and read
    values with {!int_at}, {!int64_at} and {!float_at}. Number tokens
    must follow JSON's number grammar: a bare integer is an [Integer]
    (out of int64 range is an error), anything else, ["-0"] included so
    its sign survives, a [Number]. Nested objects and arrays, [null] and
    OCaml-only literals (["1_0"], ["0x1p3"], bare [nan]) are errors
    naming the offset. *)

type cursor = private {
  line : string;
  base : int;
  stop : int;  (** the line read: the bytes of [line] from [base] up to [stop] *)
  mutable pos : int;  (** the offset reached, in [line] *)
  mutable opened : bool;  (** the ['{'] has been read *)
  mutable closed : bool;  (** the ['}'] has been read, and the line ends there *)
  mutable ksrc : string;
  mutable koff : int;
  mutable klen : int;  (** the last member's key: [klen] bytes of [ksrc] from [koff] *)
  mutable kind : kind;
  mutable src : string;
  mutable off : int;
  mutable len : int;
      (** the last value: the token of [kind], [len] bytes of [src] from
          [off] (a string's bytes between its quotes). [ksrc] and [src]
          are [line] itself unless that string had escapes, when they
          are the unescaped string alone. *)
  mutable int : int;  (** the last integer {!plain_int} read *)
}

exception Syntax of string
(** A syntax error, with the offset it was found at. *)

val cursor : string -> cursor
(** At the start of the line. *)

val cursor_sub : string -> int -> int -> cursor
(** [cursor_sub s off len]: at the start of the line that is the [len]
    bytes of [s] from [off]. Offsets in {!Syntax} errors count from
    [off], as {!cursor} on that line alone would give them. *)

val member : cursor -> bool
(** Read the next member, spaces and escapes allowed, duplicates
    included: [false] once the object has closed (and nothing but spaces
    follows it). *)

val head : cursor -> string -> bool
(** [head c h]: the next member starts with exactly [h], written as
    ["\"key\":"], right after its ['{'] or [','] with no space
    between. Then that much is read, and {!value} reads the member's
    value; else nothing is read. *)

val value : cursor -> unit
(** The value after a {!head}. *)

val plain_int : cursor -> bool
(** After a {!head}: the value is a bare integer of at most 18 digits,
    not ["-0"], that [','] or ['}'] ends. Then it is read into [int] and
    the cursor left after it; else nothing is read, and {!value} reads
    the value as it would have. *)

val key_is : string -> int -> int -> string -> bool
(** [key_is src off len k]: the [len] bytes of [src] from [off] are [k]. *)

val find_key : string array -> string -> int -> int -> int
(** [find_key keys src off len]: the position in [keys] of the [len]
    bytes of [src] from [off], or [-1]. *)

exception Out_of_range

val int_at : string -> int -> int -> int
(** An [Integer] token as an OCaml [int]. Raises {!Out_of_range} when it
    is outside [min_int .. max_int]. *)

val int64_at : string -> int -> int -> int64
(** An [Integer] token. *)

val decimal_at : string -> int -> int -> float
(** [decimal_at src off len]: a [Number] token read where it lies,
    exactly as [float_of_string] reads it, or [nan] when the fast path
    cannot decide: more than 19 significant digits, a result that is
    subnormal or out of range, or a product too close to a rounding
    boundary (Eisel-Lemire over {!Pow10}'s table). {!float_at} falls
    back to [float_of_string] on [nan]. *)

exception Not_a_float

val float_at : kind -> string -> int -> int -> float
(** A float member: a [Number], an [Integer] (as [Int64.to_float]), or
    one of the ["%h"] strings the encoder writes for non-finite floats
    (["nan"], ["-nan"], ["infinity"], ["-infinity"]). Raises
    {!Not_a_float} on any other token. A [Number] is read in place by
    {!decimal_at}, and copied for [float_of_string] only when that
    cannot decide, so the result is the same bit for bit. *)
