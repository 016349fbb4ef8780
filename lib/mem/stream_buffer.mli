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

val push : t -> Bytes.t -> on_accepted:(unit -> unit) -> unit
(** Deliver [data] into the FIFO. [on_accepted] fires (after at least
    one cycle) once space is available and the data is enqueued. Pushes
    are accepted in arrival order. *)

val pop : t -> size:int -> on_data:(Bytes.t -> unit) -> unit
(** Take exactly [size] bytes. [on_data] fires once that many bytes are
    available. Pops are served in arrival order. [size] must not exceed
    capacity. *)

val checkpoint_agent : t -> Salam_sim.Checkpoint.agent
(** FIFO payload bytes are architectural state and are captured
    verbatim; pending push/pop handshakes must have drained in both
    directions. Restore refuses a payload larger than this FIFO's
    capacity. *)
