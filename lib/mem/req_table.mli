(** A device's request slots.

    A request in a device lives in a slot of these parallel tables from
    arrival until the device hands it on or completes it: direction,
    address, size and the requester's completion [k tag] (see
    {!Packet}). A free slot keeps its last completion handler until it
    is reused, so taking one allocates nothing once the tables have
    grown to the device's peak occupancy. The fields are exposed so a
    device reads them with plain array loads; devices with more
    per-slot state keep it in arrays of their own, widened with
    [Salam_sim.Slot_pool.fit] on [slots]. *)

type t = private {
  slots : Salam_sim.Slot_pool.t;
  mutable op : Packet.op array;
  mutable addr : int array;
  mutable size : int array;
  mutable k : (int -> unit) array;
  mutable tag : int array;
}

val create : unit -> t

val alloc : t -> Packet.op -> addr:int -> size:int -> (int -> unit) -> int -> int
(** Take a slot for a request and return it. *)

val release : t -> int -> unit

val complete : t -> int -> unit
(** Release the slot and call its completion now. *)
