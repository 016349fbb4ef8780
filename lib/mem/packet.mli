(** Memory request packets.

    Timing and data are decoupled, as in gem5's functional/timing split:
    packets carry only address, size and direction. The shared backing
    store ({!Salam_ir.Memory}) holds the data; writers update it when a
    request is issued and readers consult it when the timing model
    signals completion. Stream buffers, which have real FIFO semantics,
    carry their payloads explicitly instead. *)

type op = Read | Write

type t = { op : op; addr : int64; size : int }

val make : op -> addr:int64 -> size:int -> t

val is_write : t -> bool
