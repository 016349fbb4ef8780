module Slot_pool = Salam_sim.Slot_pool

type handler = Packet.op -> addr:int -> size:int -> (int -> unit) -> int -> unit

(* [fns] parks the closures of [send_fn] by slot of [parked]; a free
   slot holds [nop]. [run_fn] is the completion handler of every such
   request, its tag the slot. *)
type t = {
  name : string;
  handler : handler;
  parked : Slot_pool.t;
  mutable fns : (unit -> unit) array;
  mutable run_fn : int -> unit;
}

let nop () = ()

let no_completion (_ : int) = ()

let make ~name handler =
  let t =
    { name; handler; parked = Slot_pool.create ~capacity:4 (); fns = [||]; run_fn = no_completion }
  in
  t.run_fn <-
    (fun i ->
      let f = t.fns.(i) in
      t.fns.(i) <- nop;
      Slot_pool.release t.parked i;
      f ());
  t

let name t = t.name

let send t op ~addr ~size k tag = t.handler op ~addr ~size k tag

let send_fn t op ~addr ~size f =
  let i = Slot_pool.take t.parked in
  if i >= Array.length t.fns then t.fns <- Slot_pool.fit t.parked t.fns nop;
  t.fns.(i) <- f;
  t.handler op ~addr ~size t.run_fn i
