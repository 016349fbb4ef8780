type op = Read | Write

type t = { id : int; op : op; addr : int64; size : int }

(* process-global so packet ids stay unique across concurrent
   simulations (domain-parallel sweeps); ids are only used for display *)
let counter = Atomic.make 0

let make op ~addr ~size = { id = Atomic.fetch_and_add counter 1 + 1; op; addr; size }

let is_read t = t.op = Read

let is_write t = t.op = Write

let pp ppf t =
  Format.fprintf ppf "%s#%d @%Ld+%d"
    (match t.op with Read -> "R" | Write -> "W")
    t.id t.addr t.size
