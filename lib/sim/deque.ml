(* Ring storage: element [i] of the deque lives at [(head + i) land mask],
   where the capacity is a power of two and [mask] is the capacity minus
   one, so indexing is a mask rather than a division.
   Elements are stored unboxed as [Obj.t], so a push writes the value
   itself rather than a fresh [Some]. An [Obj.t array] is never a flat
   float array, so [Obj.repr]/[Obj.obj] round-trip any ['a] — floats
   included — unchanged. Slots outside [head, head+len) hold [empty] so
   retired elements are not kept alive by the buffer. *)
type 'a t = { mutable buf : Obj.t array; mutable mask : int; mutable head : int; mutable len : int }

let empty = Obj.repr 0

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Deque.create: capacity must be positive";
  let cap = pow2_at_least capacity 1 in
  { buf = Array.make cap empty; mask = cap - 1; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let bigger = Array.make (2 * cap) empty in
  for i = 0 to t.len - 1 do
    bigger.(i) <- t.buf.((t.head + i) land t.mask)
  done;
  t.buf <- bigger;
  t.mask <- (2 * cap) - 1;
  t.head <- 0

let[@inline] slot t i = (t.head + i) land t.mask

let[@inline] get_unchecked t i : 'a = Obj.obj t.buf.(slot t i)

let check_index fname t i =
  if i < 0 || i >= t.len then invalid_arg ("Deque." ^ fname ^ ": index out of bounds")

let get t i =
  check_index "get" t i;
  get_unchecked t i

let set t i (x : 'a) =
  check_index "set" t i;
  t.buf.(slot t i) <- Obj.repr x

let drop_front t k =
  if k < 0 || k > t.len then invalid_arg "Deque.drop_front: count out of bounds";
  for i = 0 to k - 1 do
    t.buf.(slot t i) <- empty
  done;
  t.head <- slot t k;
  t.len <- t.len - k

let push_back t (x : 'a) =
  if t.len = Array.length t.buf then grow t;
  t.buf.(slot t t.len) <- Obj.repr x;
  t.len <- t.len + 1

let push_front t (x : 'a) =
  if t.len = Array.length t.buf then grow t;
  t.head <- (t.head - 1) land t.mask;
  t.buf.(t.head) <- Obj.repr x;
  t.len <- t.len + 1

let pop_front t : 'a =
  if t.len = 0 then invalid_arg "Deque.pop_front: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- empty;
  t.head <- (t.head + 1) land t.mask;
  t.len <- t.len - 1;
  Obj.obj x

let peek_front t : 'a =
  if t.len = 0 then invalid_arg "Deque.peek_front: empty";
  get_unchecked t 0

let peek_back t : 'a =
  if t.len = 0 then invalid_arg "Deque.peek_back: empty";
  get_unchecked t (t.len - 1)

let iter (f : 'a -> unit) (t : 'a t) =
  for i = 0 to t.len - 1 do
    f (get_unchecked t i)
  done

let iter_while (f : 'a -> bool) (t : 'a t) =
  let i = ref 0 in
  while !i < t.len && f (get_unchecked t !i) do
    incr i
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) empty;
  t.head <- 0;
  t.len <- 0
