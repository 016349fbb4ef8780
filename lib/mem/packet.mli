(** Memory requests.

    A request is a direction, an address and a size, plus a completion:
    the requester's handler [k : int -> unit] and an int [tag] the
    requester chose (its own slot for the request). No record is built
    for it: the fields travel as arguments of {!Port.send} into the
    receiving device's per-slot tables, and a device completes the
    request by calling [k tag], usually through a
    {!Salam_sim.Completion_queue}. Addresses are native ints, so nothing
    on the way is boxed.

    Timing and data are decoupled, as in gem5's functional/timing split:
    a request carries no data. The shared backing store
    ({!Salam_ir.Memory}) holds it; writers update it when a request is
    issued and readers consult it when the timing model signals
    completion. Stream buffers, which have real FIFO semantics, carry
    their payloads explicitly instead. *)

type op = Read | Write

val op_name : op -> string
(** ["read"] or ["write"], as trace lines spell it. *)
