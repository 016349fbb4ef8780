type t = { mutable free : int array;  (** stack of unused slots *) mutable n_free : int }

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Slot_pool.create: capacity must be positive";
  { free = Array.init capacity (fun i -> capacity - 1 - i); n_free = capacity }

let capacity t = Array.length t.free

(* only called with every slot taken: the new slots become the stack,
   the lowest on top *)
let grow t =
  let n = capacity t in
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.n_free <- n

let[@inline] take t =
  if t.n_free = 0 then grow t;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

let[@inline] release t s =
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let fit t a fill =
  let n = capacity t in
  if Array.length a >= n then a
  else begin
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
