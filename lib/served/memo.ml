(* A bounded map from keys, byte strings that lie in a larger string (a
   line in a reader's buffer), to 64-bit values. A key is one range of
   bytes. It is hashed and compared where it lies, and copied only when
   it is added: into one arena of key bytes, next to flat arrays of
   hashes, extents and values addressed by an open-addressing table, so
   an entry is its key's bytes and a few words.

   The arena lives outside the OCaml heap, in a Bigarray: the major GC
   never scans it and its heap does not grow by it. The same arena as
   [Bytes] read about 0.5 MB higher on served-mix's peak RSS (two
   connections of some 170 keys each). *)

type arena = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* eight bytes of an arena, unchecked: callers stay within [used] *)
external arena_get64 : arena -> int -> int64 = "%caml_bigstring_get64u"

let arena n : arena = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let capacity = 1024
let max_key = 1024

type t = {
  mutable slots : int array;  (** twice the entries there is room for: entry + 1, or 0 when free *)
  mutable hashes : int array;
  mutable offs : int array;  (** where each entry's key starts in [arena] *)
  mutable lens : int array;
  mutable values : Bytes.t;  (** eight bytes an entry *)
  mutable arena : arena;
  mutable used : int;  (** bytes of [arena] taken *)
  mutable size : int;
}

(* nothing is allocated before the first entry: a connection that only
   pings costs no table *)
let create () =
  {
    slots = [||];
    hashes = [||];
    offs = [||];
    lens = [||];
    values = Bytes.empty;
    arena = arena 0;
    used = 0;
    size = 0;
  }

let size t = t.size

(* FNV-1a over eight bytes at a time, then the tail byte by byte *)
let prime = 0x100000001b3

let mix h src off len =
  let h = ref h and j = ref off and stop = off + len in
  while !j + 8 <= stop do
    h := (!h lxor Int64.to_int (String.get_int64_le src !j)) * prime;
    j := !j + 8
  done;
  while !j < stop do
    h := (!h lxor Char.code (String.unsafe_get src !j)) * prime;
    incr j
  done;
  !h

let hash src off len =
  let h = mix (0x4bf29ce484222325 lxor len) src off len in
  h lxor (h lsr 31)

(* the [len] bytes of [src] from [off] are those of [a] from [aoff] *)
let same src off a aoff len =
  let i = ref 0 in
  while !i + 8 <= len && String.get_int64_ne src (off + !i) = arena_get64 a (aoff + !i) do
    i := !i + 8
  done;
  while !i < len && String.unsafe_get src (off + !i) = Bigarray.Array1.unsafe_get a (aoff + !i) do
    incr i
  done;
  !i = len

let put a at src off len =
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set a (at + k) (String.unsafe_get src (off + k))
  done

(* The slot of the key, or of the free slot where it would go. *)
let probe t h src off len =
  let mask = Array.length t.slots - 1 in
  let rec go s =
    let e = t.slots.(s) - 1 in
    if e < 0 || (t.hashes.(e) = h && t.lens.(e) = len && same src off t.arena t.offs.(e) len)
    then s
    else go ((s + 1) land mask)
  in
  go (h land mask)

let find t src off len =
  if t.size = 0 then -1 else t.slots.(probe t (hash src off len) src off len) - 1

let value t e = Bytes.get_int64_le t.values (8 * e)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) 0;
  t.used <- 0;
  t.size <- 0

(* room for [n] entries, [n] a power of two: the tables start small and
   double as entries come, up to [capacity] *)
let resize t n =
  let copy a = Array.init n (fun e -> if e < t.size then a.(e) else 0) in
  t.hashes <- copy t.hashes;
  t.offs <- copy t.offs;
  t.lens <- copy t.lens;
  let values = Bytes.create (8 * n) in
  Bytes.blit t.values 0 values 0 (8 * t.size);
  t.values <- values;
  t.slots <- Array.make (2 * n) 0;
  let mask = (2 * n) - 1 in
  for e = 0 to t.size - 1 do
    let s = ref (t.hashes.(e) land mask) in
    while t.slots.(!s) <> 0 do
      s := (!s + 1) land mask
    done;
    t.slots.(!s) <- e + 1
  done

(* a full table starts again empty; a key longer than [max_key] is not
   kept *)
let add t src off len v =
  if len <= max_key then begin
    if Array.length t.slots = 0 then resize t 64;
    let h = hash src off len in
    if t.slots.(probe t h src off len) = 0 then begin
      if t.size = capacity then clear t
      else if t.size = Array.length t.hashes then resize t (2 * t.size);
      if t.used + len > Bigarray.Array1.dim t.arena then begin
        let a = arena (max (t.used + len) ((2 * Bigarray.Array1.dim t.arena) + 4096)) in
        Bigarray.Array1.(blit (sub t.arena 0 t.used) (sub a 0 t.used));
        t.arena <- a
      end;
      let e = t.size in
      put t.arena t.used src off len;
      t.hashes.(e) <- h;
      t.offs.(e) <- t.used;
      t.lens.(e) <- len;
      Bytes.set_int64_le t.values (8 * e) v;
      t.used <- t.used + len;
      t.size <- e + 1;
      t.slots.(probe t h src off len) <- e + 1
    end
  end
