(* The backing store is allocated lazily: [limit] is the logical size every
   bounds check enforces, while [data] holds only the physically allocated
   prefix and doubles on demand. Bytes past the physical prefix are
   implicitly zero, so growing preserves contents exactly. This keeps
   [create ~size:(64 * 1024 * 1024)] from paying a 64 MB memset per
   simulation when a workload touches a few hundred KB. *)

type t = { mutable data : Bytes.t; mutable limit : int; mutable brk : int }

let initial_capacity = 4 * 1024

let create ~size = { data = Bytes.make (min size initial_capacity) '\000'; limit = size; brk = 8 }

let size t = t.limit

let align_up v align = (v + align - 1) / align * align

let alloc t ~bytes ~align =
  let base = align_up t.brk align in
  if base + bytes > t.limit then failwith "Memory.alloc: out of memory";
  t.brk <- base + bytes;
  Int64.of_int base

(* Slow path of [check]: either the access is genuinely out of bounds, or
   it lands past the physical prefix and the store must grow. *)
let grow_or_fail t a len addr =
  if a < 0 || a + len > t.limit then
    invalid_arg (Printf.sprintf "Memory: access at %Ld size %d out of bounds" addr len);
  let cap = ref (Bytes.length t.data) in
  while !cap < a + len do
    cap := min t.limit (!cap * 2)
  done;
  let fresh = Bytes.make !cap '\000' in
  Bytes.blit t.data 0 fresh 0 (Bytes.length t.data);
  t.data <- fresh

let check t addr len =
  let a = Int64.to_int addr in
  if a < 0 || a + len > Bytes.length t.data then grow_or_fail t a len addr;
  a

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* Loads and stores are defined once, over the raw payload of the value
   (see {!Bits.Payload}); the boxed [load]/[store] wrap them. *)
let[@inline] payload_of_le (ty : Ty.t) b a =
  match ty with
  | I1 | I8 -> Int64.of_int (Char.code (Bytes.get b a))
  | I16 -> Int64.of_int (Bytes.get_uint16_le b a)
  | I32 -> Int64.of_int32 (Bytes.get_int32_le b a)
  | I64 | Ptr | F64 -> Bytes.get_int64_le b a
  | F32 -> Int64.bits_of_float (Int32.float_of_bits (Bytes.get_int32_le b a))
  | Void -> invalid_arg "Memory.load: void"

let[@inline] le_of_payload (ty : Ty.t) b a p =
  match ty with
  | I1 | I8 -> Bytes.set b a (Char.unsafe_chr (Int64.to_int p land 0xff))
  | I16 -> Bytes.set_uint16_le b a (Int64.to_int p land 0xffff)
  | I32 -> Bytes.set_int32_le b a (Int64.to_int32 p)
  | I64 | Ptr | F64 -> Bytes.set_int64_le b a p
  | F32 -> Bytes.set_int32_le b a (Int32.bits_of_float (Int64.float_of_bits p))
  | Void -> invalid_arg "Memory.store: value does not match type"

let[@inline] payload_at t ty a = payload_of_le ty t.data a

let[@inline] store_payload_at t ty a p = le_of_payload ty t.data a p

let load t ty addr =
  let a = check t addr (Ty.size_bytes ty) in
  Bits.of_payload ty (payload_at t ty a)

let store t ty addr v =
  let a = check t addr (Ty.size_bytes ty) in
  match (ty, v) with
  | (Ty.I1 | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.Ptr), Bits.Int _ | (Ty.F32 | Ty.F64), Bits.Float _
    ->
      store_payload_at t ty a (Bits.payload v)
  | _ -> invalid_arg "Memory.store: value does not match type"

(* [check] at an int address: the engine's path and the interpreter's
   carry addresses as native ints, since an int64 argument is boxed at
   every call that is not inlined *)
let[@inline] check_i t a len =
  if a < 0 || a + len > Bytes.length t.data then grow_or_fail t a len (Int64.of_int a)

let[@inline] load_into t ty a dst at =
  check_i t a (Ty.size_bytes ty);
  set64 dst at (payload_at t ty a)

let[@inline] store_from t ty a src at =
  check_i t a (Ty.size_bytes ty);
  store_payload_at t ty a (get64 src at)

let decode_into ty src off dst at = set64 dst at (payload_of_le ty src off)

let encode_from ty src at dst off = le_of_payload ty dst off (get64 src at)

let blit t ~src ~dst ~len =
  check_i t src len;
  check_i t dst len;
  Bytes.blit t.data src t.data dst len

let blit_to_bytes t ~src dst off len =
  check_i t src len;
  Bytes.blit t.data src dst off len

let blit_from_bytes t src off ~dst len =
  check_i t dst len;
  Bytes.blit src off t.data dst len

(* A snapshot is a value: immutable string payload so it can cross
   domain boundaries safely. [s_data] runs up to the last non-zero byte
   of the physical prefix; every byte past it was zero when the
   snapshot was taken. *)
type snapshot = { s_data : string; s_brk : int; s_size : int }

(* one past the last non-zero byte of [b] *)
let used_length b =
  let n = ref (Bytes.length b) in
  while !n >= 8 && Int64.equal (get64 b (!n - 8)) 0L do
    n := !n - 8
  done;
  while !n > 0 && Bytes.get b (!n - 1) = '\000' do
    decr n
  done;
  !n

let snapshot t =
  { s_data = Bytes.sub_string t.data 0 (used_length t.data); s_brk = t.brk; s_size = t.limit }

let snapshot_bytes s = String.length s.s_data

let snapshot_brk s = s.s_brk

(* Every snapshot stops at its last non-zero byte, so equal contents
   are equal strings. *)
let snapshot_equal a b =
  a.s_size = b.s_size && a.s_brk = b.s_brk && String.equal a.s_data b.s_data

let restore t snap =
  if snap.s_size <> t.limit then
    invalid_arg "Memory.restore: snapshot size does not match memory size";
  let len = String.length snap.s_data in
  if len > Bytes.length t.data then grow_or_fail t 0 len 0L;
  Bytes.blit_string snap.s_data 0 t.data 0 len;
  (* the snapshot may be shorter than our physical prefix; everything
     past it was zero when the snapshot was taken *)
  Bytes.fill t.data len (Bytes.length t.data - len) '\000';
  t.brk <- snap.s_brk

let load_bytes t addr len =
  let a = check t addr len in
  Bytes.sub t.data a len

let store_bytes t addr b =
  let a = check t addr (Bytes.length b) in
  Bytes.blit b 0 t.data a (Bytes.length b)

let fill t addr len c =
  let a = check t addr len in
  Bytes.fill t.data a len c

let offset addr i elem_size = Int64.add addr (Int64.of_int (i * elem_size))

let read_i32_array t addr n =
  Array.init n (fun i -> Int64.to_int (Bits.to_int64 (load t Ty.I32 (offset addr i 4))))

let write_i32_array t addr a =
  Array.iteri (fun i v -> store t Ty.I32 (offset addr i 4) (Bits.Int (Int64.of_int v))) a

let read_f64_array t addr n = Array.init n (fun i -> Bits.to_float (load t Ty.F64 (offset addr i 8)))

let write_f64_array t addr a =
  Array.iteri (fun i v -> store t Ty.F64 (offset addr i 8) (Bits.Float v)) a
