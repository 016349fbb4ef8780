(** Crossbar interconnect.

    Routes packets to target ports by address range, modelling the local
    and global crossbars of the accelerator cluster. Adds a fixed
    traversal latency and arbitrates a configurable number of packets
    per cycle. *)

type config = { name : string; latency : int; width : int  (** packets per cycle *) }

type t

val create : Salam_sim.Kernel.t -> Salam_sim.Clock.t -> Salam_sim.Stats.group -> config -> t

val add_range : t -> base:int64 -> size:int -> Port.t -> unit
(** Ranges must not overlap; checked on insertion. *)

val set_default : t -> Port.t -> unit
(** Fallback target for addresses outside every range (typically the
    path towards DRAM). *)

val port : t -> Port.t
