(** Flat byte-addressable memory.

    Backs the functional interpreter and serves as the storage substrate
    behind the timing-level memory models. Addresses are 64-bit but must
    fall inside the allocated size. Multi-byte values are little-endian. *)

type t

val create : size:int -> t
(** [size] is the logical size every bounds check enforces. The physical
    backing store is allocated lazily and grows on demand, so creating a
    large memory is cheap until it is actually touched. *)

val size : t -> int
(** Logical size in bytes (the [create] argument, not the physically
    allocated prefix). *)

val alloc : t -> bytes:int -> align:int -> int64
(** Bump allocation; raises [Failure] when full. Never returns address 0
    (address 0 is reserved so null pointers trap). *)

type snapshot
(** Immutable value capturing contents, logical size and allocation
    state ([brk]). Safe to share across domains. *)

val snapshot : t -> snapshot
(** Capture the contents up to the last non-zero byte (every byte past
    it is zero, so it is not stored), the logical size, and [brk]. The
    differential validation harness uses this to replay runs on
    identical initial memory; a fast-forwarded simulation restores one
    taken at a roadmark. *)

val restore : t -> snapshot -> unit
(** Overwrite contents and allocation state with a snapshot. Bytes past
    the snapshot's stored ones are zeroed (they were zero when it was
    taken). Raises [Invalid_argument] unless the snapshot's logical size
    matches this memory's exactly — restoring into a differently sized
    memory would silently corrupt subsequent allocations. *)

val snapshot_bytes : snapshot -> int
(** Contents bytes the snapshot stores: the offset one past its last
    non-zero byte. *)

val snapshot_brk : snapshot -> int

val snapshot_equal : snapshot -> snapshot -> bool
(** Contents equality: the logical size, [brk] and every byte agree
    (however far each memory's physical prefix had grown). *)

val load : t -> Ty.t -> int64 -> Bits.t

val store : t -> Ty.t -> int64 -> Bits.t -> unit
(** Raises [Invalid_argument] when the value's kind (integer or float)
    does not match the type. *)

(** {2 Int addresses}

    The engine's memory path and the interpreter carry addresses as
    native ints, so an access boxes nothing on its way to memory. *)

val load_into : t -> Ty.t -> int -> Bytes.t -> int -> unit
(** [load_into m ty addr dst at] is {!load} writing the value's payload
    ({!Bits.payload}) to the 8 bytes of [dst] at [at], in native byte
    order, instead of boxing it. *)

val store_from : t -> Ty.t -> int -> Bytes.t -> int -> unit
(** {!store} of the value whose payload is the 8 bytes of [src] at
    [at]. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy [len] bytes within the memory (the regions may overlap). *)

val blit_to_bytes : t -> src:int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes m ~src b off len] copies [len] bytes at [src] into
    [b] at [off]. *)

val blit_from_bytes : t -> Bytes.t -> int -> dst:int -> int -> unit
(** [blit_from_bytes m b off ~dst len] copies [len] bytes of [b] at
    [off] to [dst]. *)

val decode_into : Ty.t -> Bytes.t -> int -> Bytes.t -> int -> unit
(** [decode_into ty raw off dst at] reads a [ty] value laid out as in
    memory (little-endian, [Ty.size_bytes ty] bytes) from [raw] at
    [off] and writes its payload to the 8 bytes of [dst] at [at]. *)

val encode_from : Ty.t -> Bytes.t -> int -> Bytes.t -> int -> unit
(** [encode_from ty src at raw off] is the inverse: the payload at
    [src]/[at] laid out as in memory into [raw] at [off]. *)

val load_bytes : t -> int64 -> int -> bytes

val store_bytes : t -> int64 -> bytes -> unit

val fill : t -> int64 -> int -> char -> unit

val read_i32_array : t -> int64 -> int -> int array

val write_i32_array : t -> int64 -> int array -> unit

val read_f64_array : t -> int64 -> int -> float array

val write_f64_array : t -> int64 -> float array -> unit
