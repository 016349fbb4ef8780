type op = Read | Write

type t = { op : op; addr : int64; size : int }

let make op ~addr ~size = { op; addr; size }

let is_write t = t.op = Write
