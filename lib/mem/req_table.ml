module Slot_pool = Salam_sim.Slot_pool

type t = {
  slots : Slot_pool.t;
  mutable op : Packet.op array;
  mutable addr : int array;
  mutable size : int array;
  mutable k : (int -> unit) array;
  mutable tag : int array;
}

let create () =
  { slots = Slot_pool.create (); op = [||]; addr = [||]; size = [||]; k = [||]; tag = [||] }

let widen t =
  let p = t.slots in
  t.op <- Slot_pool.fit p t.op Packet.Read;
  t.addr <- Slot_pool.fit p t.addr 0;
  t.size <- Slot_pool.fit p t.size 0;
  t.k <- Slot_pool.fit p t.k Port.no_completion;
  t.tag <- Slot_pool.fit p t.tag 0

let[@inline] alloc t op ~addr ~size k tag =
  let s = Slot_pool.take t.slots in
  if s >= Array.length t.addr then widen t;
  t.op.(s) <- op;
  t.addr.(s) <- addr;
  t.size.(s) <- size;
  if t.k.(s) != k then t.k.(s) <- k;
  t.tag.(s) <- tag;
  s

let[@inline] release t s = Slot_pool.release t.slots s

let[@inline] complete t s =
  let k = t.k.(s) and tag = t.tag.(s) in
  release t s;
  k tag
