(** The persistent result store: one JSONL line per evaluated design
    point, keyed by the point's fingerprint and sharded across N files
    by fingerprint prefix.

    Layout on disk: a directory holding [shards.manifest] (magic line,
    [count=N], and after a reshard a [gen=G] line) and the live
    generation's shard files — [shard-00.jsonl] … [shard-(N-1).jsonl]
    for generation 0, [shard-II.gG.jsonl] afterwards. A measurement
    lands in shard [top_byte(fp) mod N] — concurrent writers of
    different shards never touch the same file, and writers of the same
    shard serialize on a per-shard mutex, which makes the whole store
    safe to use from many threads and domains at once. A legacy store —
    a single JSONL file, the layout [salam_dse] wrote before stores
    became directories — opens in place as a one-shard store with no
    manifest and keeps its bytes.

    Opening loads every valid line into an in-memory index and
    *repairs* a shard whose tail is damaged (a sweep killed mid-append
    leaves a truncated last line): the damaged suffix is dropped on
    disk, every intact measurement survives, and the next sweep simply
    re-simulates the lost points. A corrupt line followed by valid lines
    is refused instead, because silently dropping intact results would
    be worse than asking the user to look. Appends are flushed
    line-by-line, so an interrupted run loses at most the measurement
    being written.

    A store is also the unit of sweep resumability: re-running a sweep
    against the same store answers every already-measured point from
    the index, bit-identical to the fresh run that produced it. The
    shard count never changes what a store answers: the same
    fingerprints hit, and hits decode to structurally equal
    measurements. *)

type t

val open_ : ?shards:int -> string -> t
(** Open (or create) the store at the given path. On creation — a
    missing or empty directory — [shards] (default 8) fixes the layout
    and is written to the manifest; on reopen the manifest wins, and
    passing a conflicting explicit [shards] raises [Failure] (use
    {!reshard}). An existing regular file opens in place as a legacy
    one-shard store; an explicit [shards] other than 1 raises [Failure].
    A non-empty directory without a manifest or a corrupt manifest
    raises [Failure]. Damaged tails are repaired and mid-file corruption
    refused shard by shard, as described above. *)

val in_memory : ?shards:int -> unit -> t
(** A sharded store with no backing files — for tests and one-shot
    servers. *)

val reshard : shards:int -> string -> unit
(** Rewrite an existing on-disk store with a different shard count.
    Every measurement survives; the manifest and shard files are
    replaced. A no-op when the count already matches. Crash-safe: the
    next generation of shard files is written in full beside the live
    ones and the atomic manifest rename is the commit point, so an
    interruption leaves either the old store or the complete new one —
    never a partial mixture, and never an entry held only in memory.
    Raises [Failure] on a legacy single-file store. *)

val shard_count : t -> int

val path : t -> string option

val find : t -> fp:int64 -> Measurement.t option

val add : t -> Measurement.t -> unit
(** Index and append+flush into the owning shard. Re-adding an existing
    fingerprint keeps the first measurement (results are deterministic,
    so both are equal anyway) and does not grow the file. Thread-safe. *)

val size : t -> int

val entries : t -> Measurement.t list
(** Shard-index order, file order within a shard — insertion order only
    for a one-shard store. *)

val repaired_bytes : t -> int
(** Total damaged-tail bytes dropped across all shards at open (0 for
    clean files). *)

val close : t -> unit
