(** Scratchpad memory.

    A banked, multi-ported SRAM with deterministic latency — the private
    and shared SPMs of the paper. Per cycle it accepts up to
    [read_ports] reads and [write_ports] writes, with at most one access
    per bank; bank mapping is cyclic or blocked, matching the
    partitioning knob in gem5-SALAM's device configs. Requests that
    cannot be serviced stall in the request queue (this is what produces
    the port-sweep behaviour of Figures 14-15). Each cycle's pass
    services, oldest first, the requests an arrival-order scan would:
    one per free bank while a port of its kind is left. Requests wait in
    per-(bank, kind) FIFOs of request slots ({!Req_table}), so a pass
    costs O(banks) and a request allocates nothing once the tables have
    grown to the peak queue depth. A request that arrived since the
    last pass and is left queued counts as one bank conflict. *)

type partitioning = Cyclic | Blocked

type config = {
  name : string;
  base : int64;
  size : int;
  banks : int;
  read_ports : int;
  write_ports : int;
  latency : int;  (** cycles from service to completion *)
  word_bytes : int;  (** bank interleave granularity *)
  partitioning : partitioning;
}

type t

val default_config : name:string -> base:int64 -> size:int -> config

val create : Salam_sim.Kernel.t -> Salam_sim.Clock.t -> Salam_sim.Stats.group -> config -> t

val port : t -> Port.t

val reads : t -> int
(** One per read access, in the words of {!cacti}. *)

val writes : t -> int

val cacti : t -> Salam_hw.Cacti_lite.result
(** The SRAM model of this configuration (capacity, word width, read
    and write ports), evaluated once at {!create}: per-access energy,
    leakage and area for power reports. *)
