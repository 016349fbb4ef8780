(** Minimal flat-JSON-object codec for the JSONL result store.

    The sealed toolchain has no JSON library, and the store only needs
    flat objects of scalars — so this codec supports exactly that: one
    object per line, values limited to strings, 64-bit integers, floats
    and booleans. A float is written in one spelling, its exact ["%h"]
    text in a JSON string (["\"0x1.08cfc38866a79p-18\""], ["\"nan\""]),
    which {!hex_float_at} reads back bit for bit: the store's
    bit-identity guarantee rests on it. Compact points and fingerprints
    ({!Point}) write floats with the same {!add_hex_float}.

    The reader takes exactly what the writer writes: members where the
    reading decoder expects them, no spaces, integers in plain decimal,
    floats as their ["%h"] string and only the escapes the writer
    uses. Each decoder ({!Measurement}, the served protocol) knows its
    line's members in order and reads them by position. *)

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
  | Integer  (** an integer as {!add_int} writes it, within the int64 range *)
  | True
  | False
  | String

(** {2 Reading a line}

    A {!cursor} walks one line member by member, in a single pass. A
    decoder checks the member it expects next with {!head} and reads its
    value with {!plain_int} or {!value}; {!close} reads the ['}'] that
    ends the line. Nothing is copied or converted: compare strings with
    {!key_is} and read values with {!int_at}, {!int64_at} and
    {!hex_float_at}. A value that is not a string, an integer of the
    writer's spelling, [true] or [false] (["-0"], ["007"], ["1.5"],
    ["1e3"], [null], a nested object), a string holding a control
    character or an escape the writer does not write raises {!Syntax}
    naming the offset. *)

type cursor = private {
  line : string;
  base : int;
  stop : int;  (** the line read: the bytes of [line] from [base] up to [stop] *)
  mutable pos : int;  (** the offset reached, in [line] *)
  mutable opened : bool;  (** the ['{'] has been read *)
  mutable kind : kind;
  mutable src : string;
  mutable off : int;
  mutable len : int;
      (** the last value: the token of [kind], [len] bytes of [src] from
          [off] (a string's bytes between its quotes). [src] is [line]
          itself unless the string had escapes, when it is the
          unescaped string alone. *)
  mutable int : int;  (** the last integer {!plain_int} read *)
}

exception Syntax of string
(** A syntax error, with the offset it was found at. *)

val cursor : string -> cursor
(** At the start of the line. *)

val cursor_sub : string -> int -> int -> cursor
(** [cursor_sub s off len]: at the start of the line that is the [len]
    bytes of [s] from [off]. Offsets count from [off], as {!cursor} on
    that line alone would give them. *)

val offset : cursor -> int
(** The offset reached, from the start of the line. *)

val head : cursor -> string -> bool
(** [head c h]: the next member starts with exactly [h], written as
    ["\"key\":"], right after its ['{'] or [',']. Then that much is
    read, and {!value} reads the member's value; else nothing is
    read. *)

val value : cursor -> unit
(** The value after a {!head}. *)

val plain_int : cursor -> bool
(** After a {!head}: the value is a bare integer of at most 18 digits,
    not ["-0"], that [','] or ['}'] ends. Then it is read into [int] and
    the cursor left after it; else nothing is read, and {!value} reads
    the value as it would have. *)

val close : cursor -> unit
(** Read the ['}'] that ends the line; raises {!Syntax} when anything
    else is there or anything follows it. *)

val key_is : string -> int -> int -> string -> bool
(** [key_is src off len k]: the [len] bytes of [src] from [off] are [k]. *)

val is_integer : string -> int -> int -> bool
(** [is_integer s off len]: the [len] bytes of [s] from [off] are an
    integer as {!add_int} writes it (no ['+'], no leading zero, not
    ["-0"]), of any magnitude. *)

exception Out_of_range

val int_at : string -> int -> int -> int
(** An [Integer] token (or any text {!is_integer} accepts) as an OCaml
    [int]. Raises {!Out_of_range} when it is outside
    [min_int .. max_int]. *)

val int64_at : string -> int -> int -> int64
(** An [Integer] token. *)

exception Not_a_float

val hex_float_at : string -> int -> int -> float
(** [hex_float_at s off len]: the [len] bytes of [s] from [off] read as
    the one spelling {!add_hex_float} writes, bit for bit (["nan"] and
    ["-nan"] read as [Float.nan] and its negation). Raises
    {!Not_a_float} on any other text: uppercase, a trailing zero digit,
    more than 13 digits, an exponent without its sign or out of range. *)
