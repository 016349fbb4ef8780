(** The first 128 bits of each power of ten from 1e-348 to 1e347,
    rounded down: the table {!Jsonl.decimal_at} multiplies by. *)

val min_exp10 : int
val max_exp10 : int

val mantissas : int64 array
(** Entry [2 * (q - min_exp10)] is the high word of 10^q's mantissa and
    the next entry its low word, both read as unsigned. *)
