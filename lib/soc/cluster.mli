(** Hierarchical accelerator cluster.

    A pool of accelerators around a local crossbar with shared
    resources: scratchpad, block DMA, stream DMAs and stream links. The
    local crossbar's default route climbs to the system fabric (global
    crossbar → DRAM); accelerator MMRs and private SPMs are mapped into
    the local crossbar so that the host, the DMA and sibling
    accelerators can reach them — the topology of Fig 1 / Fig 16. *)

type t

val create :
  System.t -> Fabric.t -> name:string -> clock_mhz:float -> ?xbar_width:int -> unit -> t
(** [xbar_width] is the local crossbar's packets-per-cycle arbitration
    width (default 4). *)

val local_port : t -> Salam_mem.Port.t

val add_accelerator : t -> Accelerator.t -> unit
(** Routes the accelerator's default memory path through the local
    crossbar and maps its MMR block into both the local crossbar and the
    fabric. *)

val add_private_spm :
  t -> Accelerator.t -> size:int -> ?config:(Salam_mem.Spm.config -> Salam_mem.Spm.config) ->
  unit -> int64 * Salam_mem.Spm.t
(** Allocates a region, builds the SPM, attaches it directly to the
    accelerator's interface and maps it into the local crossbar (so DMA
    can fill it). Returns the base address. *)

val add_shared_spm :
  t -> size:int -> ?config:(Salam_mem.Spm.config -> Salam_mem.Spm.config) -> unit ->
  int64 * Salam_mem.Spm.t
(** SPM reachable by every cluster member through the local crossbar. *)

val add_private_cache :
  t -> Accelerator.t -> size:int -> ?config:(Salam_mem.Cache.config -> Salam_mem.Cache.config) ->
  unit -> Salam_mem.Cache.t
(** Interposes a cache between the accelerator and the local crossbar:
    the accelerator's default route becomes the cache, whose miss path
    is the crossbar. *)

val add_dma : t -> ?config:Salam_mem.Dma.Block.config -> unit -> Salam_mem.Dma.Block.t
(** Block DMA whose memory port is the local crossbar. *)

val add_stream_link :
  t ->
  ?window_bytes:int ->
  producer:Accelerator.t ->
  consumer:Accelerator.t ->
  capacity_bytes:int ->
  unit ->
  int64 * int64 * Salam_mem.Stream_buffer.t
(** FIFO from [producer] to [consumer]. Returns
    [(push_base, pop_base, buffer)]: stores by the producer anywhere in
    the [window_bytes] (default 4 KiB) window at [push_base] push; loads
    by the consumer at [pop_base] pop. *)

val stream_dma : t -> name:string -> chunk_bytes:int -> Salam_mem.Dma.Stream.t
(** Stream DMA bridging cluster memory and stream buffers. *)
