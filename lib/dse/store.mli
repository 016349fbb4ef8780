(** One JSONL shard file of a {!Store_shard}, private to this library:
    the in-memory index over the file's lines, the tail repair on open
    and the flushed appends. The public semantics are documented in
    {!Store_shard}. *)

type t

val open_ : string -> t
(** Load (or create) the JSONL file at the given path. Truncated or
    corrupt trailing lines are dropped from the file; a corrupt line
    *followed by valid lines* raises [Failure] instead, because silently
    dropping intact results would be worse than asking the user to look. *)

val in_memory : unit -> t
(** A shard with no backing file. *)

val find : t -> fp:int64 -> Measurement.t option

val add : t -> Measurement.t -> unit
(** Index and append+flush one measurement. Re-adding an existing
    fingerprint keeps the first measurement (results are deterministic,
    so both are equal anyway) and does not grow the file. *)

val size : t -> int

val entries : t -> Measurement.t list
(** In insertion (= file) order. *)

val repaired_bytes : t -> int
(** Bytes of damaged tail dropped when the store was opened (0 for a
    clean file). *)

val close : t -> unit
