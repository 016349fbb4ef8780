(** Memory ports.

    A port is the target side of a master/slave connection: a device
    exposes a port; requestors send requests into it and are called
    back, as [k tag], when the device's timing model has serviced the
    request (see {!Packet}). Connecting a master to a slave is simply
    capturing the slave's port. *)

type t

val make :
  name:string -> (Packet.op -> addr:int -> size:int -> (int -> unit) -> int -> unit) -> t

val name : t -> string

val send : t -> Packet.op -> addr:int -> size:int -> (int -> unit) -> int -> unit
(** [send p op ~addr ~size k tag] delivers a request to the device; it
    calls [k tag] when the request completes. The port adds no
    per-request state of its own. *)

val send_fn : t -> Packet.op -> addr:int -> size:int -> (unit -> unit) -> unit
(** {!send} with a closure for the completion, for requesters off the
    per-access path (the host's driver code, tests). The closure waits
    in a table of the port's until the request completes. *)

val no_completion : int -> unit
(** A handler that does nothing, for requests nobody waits on (cache
    writebacks). *)
