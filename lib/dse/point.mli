(** One point of a design space: a full set of configuration knobs.

    A point bundles every knob a sweep may vary — the memory attachment
    (kind, ports, banks, capacity), the functional-unit budget, the
    compile-time unrolling factors and the clock — into one flat record
    with a *canonical form* and a stable 64-bit fingerprint. The
    canonical form zeroes knobs that the chosen memory kind ignores
    (cache capacity for an SPM point, port counts for a cache point),
    so two raw points that elaborate to the same hardware always carry
    the same fingerprint; the fingerprint keys the persistent result
    store ({!Store_shard}). *)

type memory_kind = Spm | Cache | Dram

val memory_kind_to_string : memory_kind -> string

val memory_kind_of_string : string -> memory_kind option

val memory_kind_at : string -> int -> int -> memory_kind option
(** [memory_kind_at s off len]: {!memory_kind_of_string} of the [len]
    bytes of [s] from [off], read in place. *)

type t = {
  memory : memory_kind;
  read_ports : int;  (** SPM read ports; ignored for cache/DRAM *)
  write_ports : int;  (** SPM write ports; ignored for cache/DRAM *)
  banks : int;  (** SPM banks; ignored for cache/DRAM *)
  cache_bytes : int;  (** cache capacity; ignored for SPM/DRAM *)
  fu_limit : int;  (** FADD/FMUL units; 0 = unconstrained 1:1 map *)
  unroll : int;  (** inner-loop unroll factor (workload knob) *)
  junroll : int;  (** middle-loop unroll factor (workload knob) *)
  clock_mhz : float;
  node_nm : int;  (** technology node of the hardware characterization *)
  cycle_time_ns : float;
      (** characterized cycle time the hardware profile is looked up at *)
  hw_db : string;
      (** content hash of the characterization database
          ({!Salam_config.hash}); part of the fingerprint, so results
          measured under different tables never answer for each other *)
}

val default : t
(** SPM with 2 read / 1 write ports and 2 banks, unconstrained units,
    no unrolling, 500 MHz, the built-in 40 nm database at 2 ns —
    mirrors [Salam.Config.default]. *)

val resolve_profile : t -> (Salam_hw.Profile.t, string) result
(** Resolve the point's hardware identity ([hw_db], [node_nm],
    [cycle_time_ns]) through the process-wide {!Salam_config} registry.
    Loud [Error] when the named database is not loaded in this process
    or lacks the requested characterization. *)

val with_hw : ?db_path:string -> ?cycle_time_ns:float -> t -> (t, string) result
(** The CLIs' [--hw-db FILE] / [--cycle-time NS] flags applied to a
    point: load and register the database at [db_path] (its node becomes
    the point's), then select [cycle_time_ns], pinning [clock_mhz] to the
    matching frequency (a profile characterized at 5 ns is meaningless
    at 500 MHz). Without [cycle_time_ns] the point keeps its cycle time
    and clock. Loud [Error] when the file does not load or the
    characterization does not resolve (see {!resolve_profile}). *)

val canonical : t -> t
(** Zero the fields the memory kind ignores (see above). Idempotent. *)

val compare : t -> t -> int
(** Total order on canonical forms. *)

val cache_set_bytes : int
(** Bytes in one set of the caches {!to_config} builds (64-byte lines, 4
    ways): a cache point's capacity must be a positive multiple. *)

val to_config : t -> Salam.Config.t
(** Elaborate the point into a simulation configuration. A positive
    [fu_limit] caps FADD and FMUL (double precision) in the static
    allocation the engine schedules on; cache points use 64-byte lines, 4 ways
    and 2-cycle hits, as the paper's Fig 13 sweep does. The hardware
    profile comes from {!resolve_profile}; raises [Invalid_argument]
    when that fails (validate points with {!resolve_profile} first
    where an exception is unacceptable). *)

val to_compact : t -> string
(** One-token wire form of the canonical point: ["k=v"] pairs sorted by
    key and joined with commas, floats written exactly ([%h]), e.g.
    ["banks=4,cache_bytes=0,...,write_ports=1"] — the {!Salam_served}
    protocol's point encoding. *)

val add_compact : Jsonl.sink -> t -> unit
(** [to_compact p], written straight into the sink. *)

val of_compact : string -> (t, string) result
(** Inverse of {!to_compact}: exactly the text it writes, so
    [of_compact s = Ok p] implies [to_compact p = s]. Each key is read
    where {!to_compact} puts it, in sorted order. Loud [Error] naming
    the key (and the offset) on a key out of that order, missing,
    repeated or unknown, on text after the last pair, on a value not
    spelled as {!to_compact} writes it (integers in plain decimal,
    floats as [%h]), or on a knob the memory kind ignores that is
    not 0. *)

val of_compact_sub : string -> int -> int -> (t, string) result
(** [of_compact_sub s off len]: {!of_compact} of the [len] bytes of [s]
    from [off], read in place. *)

val to_string : t -> string
(** One-line human-readable form, e.g. ["spm rd=8 wr=4 banks=16 fu=1:1
    u=16 j=8 500MHz"]. *)

val fingerprint : workload:string -> t -> int64
(** FNV-1a 64-bit hash over ["epoch=N"] for {!Salam.model_epoch}, a
    NUL byte, the workload identity, a NUL byte and
    ["k=v;"] per field of the canonical point, sorted by key as in
    {!to_compact}. Independent of axis declaration order by
    construction. The bytes are fed to the hash as they are written:
    no text is built. *)

val fingerprint_hex : int64 -> string
(** Fixed-width lowercase hex (16 chars), the store's key format. *)

val fingerprint_of_hex : string -> int64 option
(** The 16 lowercase hex digits {!fingerprint_hex} writes, read back;
    [None] for any other text (upper case included). *)

val fingerprint_at : string -> int -> int -> int64 option
(** [fingerprint_at s off len]: {!fingerprint_of_hex} of the [len] bytes
    of [s] from [off], read in place. *)
