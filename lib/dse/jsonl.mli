(** Minimal flat-JSON-object codec for the JSONL result store.

    The sealed toolchain has no JSON library, and the store only needs
    flat objects of scalars — so this codec supports exactly that: one
    object per line, values limited to strings, 64-bit integers, floats
    and booleans. A float is written in one spelling, its exact ["%h"]
    text in a JSON string (["\"0x1.08cfc38866a79p-18\""], ["\"nan\""]),
    which {!hex_float_at} reads back bit for bit: the store's
    bit-identity guarantee rests on it. Compact points and fingerprints
    ({!Point}) write floats with the same {!add_hex_float}. *)

type value = Int of int64 | Float of float | Bool of bool | Str of string

type sink = To_buffer of Buffer.t | To_hash of Bytes.t
(** Where written text goes: a buffer, or straight into a running
    FNV-1a 64-bit hash whose state is the 8 bytes (feeding it a byte
    allocates nothing). *)

val add_char : sink -> char -> unit

val add_string : sink -> string -> unit

val add_int : sink -> int -> unit
(** [string_of_int n], written straight into the sink. *)

val add_hex_float : sink -> float -> unit
(** [Printf.sprintf "%h" f], written straight into the sink: the one
    spelling of a float, in a line and in a compact point. *)

val add_member : sink -> first:bool -> string -> value -> unit
(** Append one ["key":value] member: opened with ['{'] when [first],
    else preceded by [',']. Close the object with ['}'] yourself. *)

val add_key : sink -> first:bool -> string -> unit
(** {!add_member}'s ["key":] alone: write the value yourself. *)

val has_escapes : string -> bool
(** The string holds a byte the encoder escapes (['"'], ['\\'] or a
    control character). *)

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

exception Not_a_float

val hex_float_at : string -> int -> int -> float
(** [hex_float_at s off len]: the [len] bytes of [s] from [off] read as
    the one spelling {!add_hex_float} writes, bit for bit (["nan"] and
    ["-nan"] read as [Float.nan] and its negation). Raises
    {!Not_a_float} on any other text: uppercase, a trailing zero digit,
    more than 13 digits, an exponent without its sign or out of range. *)

val float_at : kind -> string -> int -> int -> float
(** A float member: a [String] read by {!hex_float_at}. A [Number] or an
    [Integer], the decimal spelling stores wrote before floats were
    hex, is read by [float_of_string] or [Int64.to_float]: the same
    value. Raises {!Not_a_float} on any other token. *)
