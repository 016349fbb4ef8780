(** Deferred calls [k tag], run by one preallocated event per batch.

    A device that completes requests after a delay keeps the pending
    completions here instead of scheduling a closure per request: an
    entry is the requester's handler [k] and its int [tag] (the
    requester's own slot for the request), so staging one allocates
    nothing once the ring has grown to the peak number pending.

    Entries are staged into an open batch with {!add}; {!close}
    schedules the whole batch as one kernel event. Batching is exactly
    equivalent to one event per entry when nothing else is scheduled
    between the entries: the per-entry events would have had
    consecutive sequence numbers at one tick, so no other event could
    run between them. The batches of one queue must fall due in the
    order they are closed (a device with a fixed or monotone delay
    guarantees this); {!close} raises [Invalid_argument] otherwise. *)

type t

val create : Clock.t -> t

val add : t -> (int -> unit) -> int -> unit
(** Stage [k tag] in the open batch. *)

val close : t -> cycles:int -> unit
(** Schedule the open batch to run [cycles] cycles after the clock's
    next edge (see {!Clock.schedule_cycles}), its entries in the order
    they were added. Does nothing when the open batch is empty. *)

val after : t -> cycles:int -> (int -> unit) -> int -> unit
(** [add] then [close]: one entry, one event. *)
