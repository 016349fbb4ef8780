(** System backbone: global crossbar plus DRAM.

    The global crossbar grants clusters access to resources outside
    themselves; DRAM is its default route and backs the whole address
    space. Cluster-local devices that must be visible system-wide
    (private SPMs for DMA, MMR blocks) are mapped in with
    {!add_range}. *)

type t

val create : System.t -> t
(** The backbone is fixed: an 800 MHz clock domain shared by a DRAM
    named ["dram"] (30-cycle access latency, 8 bytes per cycle, backing
    the whole of the system's memory) and a crossbar named
    ["global_xbar"] (1-cycle latency, 4 packets per cycle). *)

val port : t -> Salam_mem.Port.t
(** Into the global crossbar. *)

val add_range : t -> base:int64 -> size:int -> Salam_mem.Port.t -> unit
