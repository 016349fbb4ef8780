(** Set-associative cache.

    Write-back, write-allocate, LRU replacement, with a configurable
    number of MSHRs for outstanding misses and a per-cycle lookup port
    limit. Timing only: data lives in the shared backing store, so a
    cache is a latency/bandwidth filter between its requestors and the
    [lower] port (crossbar, next cache level, or DRAM).

    Requests that cross line boundaries are split internally and
    complete when every fragment has completed. *)

type config = {
  name : string;
  size : int;  (** capacity in bytes *)
  line_bytes : int;
  ways : int;
  hit_latency : int;  (** cycles *)
  mshrs : int;  (** max outstanding misses *)
  lookup_ports : int;  (** lookups serviced per cycle *)
}

type t

val default_config : name:string -> size:int -> config
(** 64-byte lines, 4 ways, 2-cycle hits, 8 MSHRs, 2 lookup ports. *)

val create :
  Salam_sim.Kernel.t ->
  Salam_sim.Clock.t ->
  Salam_sim.Stats.group ->
  config ->
  lower:Port.t ->
  t

val port : t -> Port.t

val hits : t -> int

val misses : t -> int

val invariant_errors : t -> string list
(** Consistency checks meant for the end of a simulation: accounting
    ([hits + misses = fragments]), no request still queued, no MSHR
    outstanding, no way still reserved by an in-flight fill. Empty when
    the cache is quiescent and consistent. *)

val flush : t -> unit
(** Invalidate everything (drop dirty lines silently — data is always in
    the backing store); used between host/accelerator hand-offs. *)

val cacti : t -> Salam_hw.Cacti_lite.result
(** The SRAM model (64-bit words, [lookup_ports] read ports). *)

val reads : t -> int
(** Array reads in 64-bit words: one per read hit and per read waiter a
    fill completes, [line_bytes / 8] per dirty line written back. *)

val writes : t -> int
(** Array writes in 64-bit words: one per write hit and per write waiter
    a fill completes, [line_bytes / 8] per line fill. *)
