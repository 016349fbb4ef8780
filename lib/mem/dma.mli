(** DMA engines.

    [Block] is the classic block-copy DMA the paper's clusters share: it
    moves [len] bytes between two address ranges in bursts, keeping a
    configurable number of bursts in flight, and fires a completion
    callback (which the communications interface turns into an
    interrupt). [Stream] bridges address-mapped memory and a
    {!Stream_buffer}, implementing the stream DMAs of Fig 16c. *)

module Block : sig
  type config = {
    name : string;
    burst_bytes : int;
    max_in_flight : int;  (** concurrent bursts *)
  }

  type t

  val default_config : name:string -> config
  (** 64-byte bursts, 4 in flight. *)

  val create :
    Salam_sim.Kernel.t ->
    Salam_sim.Clock.t ->
    Salam_sim.Stats.group ->
    config ->
    backing:Salam_ir.Memory.t ->
    port:Port.t ->
    t

  val start : t -> src:int64 -> dst:int64 -> len:int -> on_done:(unit -> unit) -> unit
  (** Begin a copy. Raises [Invalid_argument] if a transfer is already
      active. Data is copied burst-by-burst through [backing]. *)

  val busy : t -> bool
end

module Stream : sig
  type t

  val create :
    Salam_sim.Kernel.t ->
    Salam_sim.Clock.t ->
    Salam_sim.Stats.group ->
    name:string ->
    chunk_bytes:int ->
    backing:Salam_ir.Memory.t ->
    port:Port.t ->
    t

  val stream_in :
    t -> buffer:Stream_buffer.t -> src:int64 -> len:int -> on_done:(unit -> unit) -> unit
  (** Memory -> FIFO: read [chunk_bytes] at a time from [src] and push
      the payloads into [buffer]. *)

  val stream_out :
    t -> buffer:Stream_buffer.t -> dst:int64 -> len:int -> on_done:(unit -> unit) -> unit
  (** FIFO -> memory. *)
end
