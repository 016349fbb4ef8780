(** Stream buffer (AXI-Stream-style FIFO).

    Unlike the address-mapped devices, a stream buffer carries real
    payload bytes and implements the two-way ready/valid handshake the
    paper identifies as the capability trace-based simulators cannot
    model: a producer blocks when the FIFO is full, a consumer blocks
    when it is empty, and both make progress as soon as the other side
    acts — which is what lets accelerators with different data rates
    pipeline directly (Fig 16c). *)

type t

val create :
  Salam_sim.Kernel.t ->
  Salam_sim.Clock.t ->
  Salam_sim.Stats.group ->
  name:string ->
  capacity_bytes:int ->
  t

val occupancy : t -> int

val push : t -> Bytes.t -> int -> int -> (int -> unit) -> int -> unit
(** [push t src off len k tag] offers the [len] bytes of [src] at [off],
    copied at once, for the FIFO. [k tag] is called (after at least one
    cycle) once space is available and the bytes are enqueued. Pushes
    are accepted in arrival order. *)

val pop : t -> size:int -> Bytes.t -> int -> (int -> unit) -> int -> unit
(** [pop t ~size dst off k tag] takes exactly [size] bytes, once that
    many are available, into [dst] at [off]; [k tag] is called one cycle
    later. [dst] must stay reserved for the pop until then. Pops are
    served in arrival order. [size] must not exceed capacity. *)
