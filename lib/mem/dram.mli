(** DRAM model.

    First-order main-memory timing: a fixed access latency plus a
    bandwidth constraint enforced by a single channel that transfers
    [bus_bytes] per memory-clock cycle. Requests are serviced in order.
    This is the DDR behind the global crossbar in the paper's system
    figures. *)

type config = {
  name : string;
  base : int64;
  size : int;
  access_latency : int;  (** cycles of fixed latency per request *)
  bus_bytes : int;  (** bytes transferred per cycle once streaming *)
}

type t

val create : Salam_sim.Kernel.t -> Salam_sim.Clock.t -> Salam_sim.Stats.group -> config -> t

val port : t -> Port.t
