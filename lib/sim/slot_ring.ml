(* Element [i] lives at [(head + i) land mask], where the buffer length
   is a power of two and [mask] is that length minus one. *)
type t = { mutable buf : int array; mutable mask : int; mutable head : int; mutable len : int }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Slot_ring.create: capacity must be positive";
  let cap = pow2_at_least capacity 1 in
  { buf = Array.make cap 0; mask = cap - 1; head = 0; len = 0 }

let[@inline] length r = r.len

let[@inline] is_empty r = r.len = 0

let grow r =
  let cap = Array.length r.buf in
  let bigger = Array.make (2 * cap) 0 in
  for i = 0 to r.len - 1 do
    bigger.(i) <- r.buf.((r.head + i) land r.mask)
  done;
  r.buf <- bigger;
  r.mask <- (2 * cap) - 1;
  r.head <- 0

let[@inline] push_back r x =
  if r.len = Array.length r.buf then grow r;
  r.buf.((r.head + r.len) land r.mask) <- x;
  r.len <- r.len + 1

let[@inline] pop_front r =
  if r.len = 0 then invalid_arg "Slot_ring.pop_front: empty";
  let x = r.buf.(r.head) in
  r.head <- (r.head + 1) land r.mask;
  r.len <- r.len - 1;
  x

let[@inline] peek_front r =
  if r.len = 0 then invalid_arg "Slot_ring.peek_front: empty";
  r.buf.(r.head)

let[@inline] get r i =
  if i < 0 || i >= r.len then invalid_arg "Slot_ring.get: index out of range";
  r.buf.((r.head + i) land r.mask)

let[@inline] set r i x =
  if i < 0 || i >= r.len then invalid_arg "Slot_ring.set: index out of range";
  r.buf.((r.head + i) land r.mask) <- x

let drop_front r k =
  if k < 0 || k > r.len then invalid_arg "Slot_ring.drop_front: count out of range";
  r.head <- (r.head + k) land r.mask;
  r.len <- r.len - k

let iter_while f r =
  let i = ref 0 in
  while !i < r.len && f r.buf.((r.head + !i) land r.mask) do
    incr i
  done

let to_list r = List.init r.len (fun i -> r.buf.((r.head + i) land r.mask))
