(** The persistent result store: one JSONL line per evaluated design
    point, keyed by the point's fingerprint, behind one in-memory index
    and one mutex. The index holds each entry as its line: {!find_line}
    returns those bytes unchanged, which is how the daemon answers a hit
    without re-encoding it, while {!find} and {!entries} decode them on
    demand.

    Layout on disk: a directory holding [shards.manifest] (exactly
    ["salam-shards 1\ncount=1\n"], written when the store is created)
    and [shard-00.jsonl], created on the first add. Nothing else opens:
    a single JSONL file or a directory whose manifest says anything else
    (an N-shard [count=N], a [gen=G]) is a store from before
    {!Salam.model_epoch} 1, whose lines no lookup could hit, and is
    refused with [Failure] naming the path and what was found; its bytes
    are left untouched.

    Opening decodes and validates every line. A line must be exactly
    what {!Measurement.to_line} writes ({!Measurement.of_line} reads
    nothing else), so it is held as read; and its [fp] must be
    {!Point.fingerprint} of its own [workload] and point, so a line is
    never answered for a point it does not describe. Opening also
    *repairs* a file whose last line was cut by an interrupted append
    (it has no ['\n'], no closing ['}'], and does not decode): that
    fragment is dropped on disk, every intact measurement survives, and
    the next sweep simply re-simulates the lost point. Any other line that does not decode
    (mid-file corruption, reordered keys, spaces, a decimal float, a
    CRLF file, a file that is not a store) or whose [fp] is not its own
    (a line from another model epoch, or a hand-edited knob) raises
    [Failure] naming the path and the line, and leaves the file
    untouched. Appends are flushed line by line, so an interrupted run
    loses at most the measurement being written.

    A store is also the unit of sweep resumability: re-running a sweep
    against the same store answers every already-measured point from
    the index, bit-identical to the fresh run that produced it. Every
    operation takes the store's one lock, so a store is safe to share
    between threads and domains. *)

type t

val open_ : string -> t
(** Open (or create) the store directory at the given path: a missing
    or empty directory becomes a new store. A regular file, a non-empty
    directory without the one manifest, or a line refused as above
    raises [Failure]. *)

val in_memory : unit -> t
(** A store with no backing file — for tests and one-shot servers. *)

val path : t -> string option

val find_line : t -> fp:int64 -> string option
(** The line ({!Measurement.to_line}) held for a fingerprint, without
    decoding it. *)

val find : t -> fp:int64 -> Measurement.t option
(** {!find_line}, decoded. *)

val add : t -> Measurement.t -> unit
(** Index and append+flush one measurement. Re-adding an existing
    fingerprint keeps the first measurement (results are deterministic,
    so both are equal anyway) and does not grow the file. *)

val add_line : t -> Measurement.t -> string
(** {!add}, returning the line now held for the measurement's
    fingerprint: the one just written, or the first one's on a re-add. *)

val size : t -> int

val entries : t -> Measurement.t list
(** Every held line decoded, in file order (insertion order). *)

val repaired_bytes : t -> int
(** Bytes of cut-off last line dropped at open (0 for clean files). *)

val close : t -> unit
