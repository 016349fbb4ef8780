(** Memory ports.

    A port is the target side of a master/slave connection: a device
    exposes a port; requestors send packets into it and receive a
    completion callback when the device's timing model has serviced the
    request. Connecting a master to a slave is simply capturing the
    slave's port. *)

type t

val make : name:string -> (Packet.t -> on_complete:(unit -> unit) -> unit) -> t

val name : t -> string

val send : t -> Packet.t -> on_complete:(unit -> unit) -> unit
(** Deliver a packet to the device; [on_complete] runs when its timing
    model has serviced the request. The port adds no per-request state
    of its own: [on_complete] reaches the device unwrapped. *)
