module Fu = Salam_hw.Fu

type memory_kind = Spm | Cache | Dram

let memory_kind_to_string = function Spm -> "spm" | Cache -> "cache" | Dram -> "dram"

let memory_kind_at s off len =
  if Jsonl.key_is s off len "spm" then Some Spm
  else if Jsonl.key_is s off len "cache" then Some Cache
  else if Jsonl.key_is s off len "dram" then Some Dram
  else None

let memory_kind_of_string s = memory_kind_at s 0 (String.length s)

type t = {
  memory : memory_kind;
  read_ports : int;
  write_ports : int;
  banks : int;
  cache_bytes : int;
  fu_limit : int;
  unroll : int;
  junroll : int;
  clock_mhz : float;
  node_nm : int;  (** technology node of the hardware characterization *)
  cycle_time_ns : float;  (** characterized cycle time the profile is looked up at *)
  hw_db : string;
      (** content hash of the characterization database ([Salam_config.hash]);
          part of the fingerprint, so results measured under different
          tables can never answer for each other *)
}

let default =
  {
    memory = Spm;
    read_ports = 2;
    write_ports = 1;
    banks = 2;
    cache_bytes = 0;
    fu_limit = 0;
    unroll = 1;
    junroll = 1;
    clock_mhz = 500.0;
    node_nm = Salam_config.node_nm Salam_config.builtin;
    cycle_time_ns = 2.0;
    hw_db = Salam_config.builtin_hash;
  }

(* zero out whatever the memory kind does not elaborate, so e.g. a cache
   point reached with two different (irrelevant) port settings is a
   single design *)
let canonical p =
  match p.memory with
  | Spm when p.cache_bytes = 0 -> p
  | Spm -> { p with cache_bytes = 0 }
  | Cache when p.read_ports = 0 && p.write_ports = 0 && p.banks = 0 -> p
  | Cache -> { p with read_ports = 0; write_ports = 0; banks = 0 }
  | Dram when p.read_ports = 0 && p.write_ports = 0 && p.banks = 0 && p.cache_bytes = 0 -> p
  | Dram -> { p with read_ports = 0; write_ports = 0; banks = 0; cache_bytes = 0 }

let compare a b = Stdlib.compare (canonical a) (canonical b)

(* The point's hardware identity, resolved through the process-wide
   database registry — loud failure when the named table is not loaded
   or lacks the requested characterization. *)
let resolve_profile p =
  Salam_config.resolve ~hw_db:p.hw_db ~node:p.node_nm ~cycle_time_ns:p.cycle_time_ns

let with_hw ?db_path ?cycle_time_ns p =
  let ( let* ) = Result.bind in
  let* p =
    match db_path with
    | None -> Ok p
    | Some path ->
        let* db = Salam_config.load path in
        Ok { p with hw_db = Salam_config.register db; node_nm = Salam_config.node_nm db }
  in
  let p =
    match cycle_time_ns with
    | None -> p
    | Some ct ->
        { p with cycle_time_ns = ct; clock_mhz = Salam_config.clock_mhz_of_cycle_time ct }
  in
  let* _ = resolve_profile p in
  Ok p

let cache_line_bytes = 64

let cache_ways = 4

let cache_set_bytes = cache_line_bytes * cache_ways

let to_config p =
  let hw =
    match resolve_profile p with
    | Ok profile -> profile
    | Error e -> invalid_arg ("Point.to_config: " ^ e)
  in
  let fu_limits =
    if p.fu_limit > 0 then [ (Fu.Fp_add_dp, p.fu_limit); (Fu.Fp_mul_dp, p.fu_limit) ]
    else []
  in
  let memory =
    match p.memory with
    | Spm ->
        Salam.Config.Spm
          {
            read_ports = p.read_ports;
            write_ports = p.write_ports;
            banks = p.banks;
            latency = 1;
          }
    | Cache ->
        Salam.Config.Cache
          {
            size = p.cache_bytes;
            line_bytes = cache_line_bytes;
            ways = cache_ways;
            hit_latency = 2;
          }
    | Dram -> Salam.Config.Dram_direct
  in
  {
    Salam.Config.default with
    Salam.Config.clock_mhz = p.clock_mhz;
    memory;
    fu_limits;
    hw;
  }

(* --- the canonical serialization ------------------------------------- *)

let fnv_offset = 0xcbf29ce484222325L

type kind = Int of (t -> int) | Float of (t -> float) | Text of (t -> string)

(* Every field sorted by key: the fingerprint must not depend on the
   order axes were declared in, and record-field order is an
   implementation detail. Floats are written exactly ([%h]). *)
let fields =
  [|
    ("banks", Int (fun p -> p.banks));
    ("cache_bytes", Int (fun p -> p.cache_bytes));
    ("clock_mhz", Float (fun p -> p.clock_mhz));
    ("cycle_time_ns", Float (fun p -> p.cycle_time_ns));
    ("fu_limit", Int (fun p -> p.fu_limit));
    ("hw_db", Text (fun p -> p.hw_db));
    ("junroll", Int (fun p -> p.junroll));
    ("memory", Text (fun p -> memory_kind_to_string p.memory));
    ("node_nm", Int (fun p -> p.node_nm));
    ("read_ports", Int (fun p -> p.read_ports));
    ("unroll", Int (fun p -> p.unroll));
    ("write_ports", Int (fun p -> p.write_ports));
  |]

let n_fields = Array.length fields
let keys = Array.map fst fields

(* [k=v] per field of the canonical point, each followed by [term] or,
   without it, separated by [','] *)
let add_fields ?term sink p =
  let p = canonical p in
  for i = 0 to n_fields - 1 do
    let k, kind = fields.(i) in
    (match term with None when i > 0 -> Jsonl.add_char sink ',' | _ -> ());
    Jsonl.add_string sink k;
    Jsonl.add_char sink '=';
    (match kind with
    | Int get -> Jsonl.add_int sink (get p)
    | Float get -> Jsonl.add_hex_float sink (get p)
    | Text get -> Jsonl.add_string sink (get p));
    match term with Some c -> Jsonl.add_char sink c | None -> ()
  done

let add_compact sink p = add_fields sink p

let to_compact p =
  let b = Buffer.create 192 in
  add_compact (Jsonl.To_buffer b) p;
  Buffer.contents b

(* the first [c] in [s] from [start] on, or [stop] *)
let find s start stop c =
  let j = ref start in
  while !j < stop && s.[!j] <> c do
    incr j
  done;
  !j

exception Refused of string

let refuse fmt = Printf.ksprintf (fun e -> raise (Refused ("point: " ^ e))) fmt

let bad_value s i off len what =
  refuse "field %s: %S is not %s" (fst fields.(i)) (String.sub s off len) what

(* the position of hw_db in [fields], the one free-text field *)
let hw_db_at = 5

(* The [k=v] pairs in [to_compact]'s order, each key where that order
   puts it, and nothing after the last. *)
let of_compact_sub s off len =
  let n = off + len in
  (* literals, built in place without a call into the runtime *)
  let ints = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] in
  let floats = [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |] in
  let memory = ref Spm and hw_db = ref "" in
  match
    let start = ref off in
    for i = 0 to n_fields - 1 do
      let k = keys.(i) in
      let klen = String.length k in
      (* [n] when the text ended before this field *)
      let at = min !start n in
      let next = find s at n ',' in
      if not (!start + klen < next && s.[!start + klen] = '=' && Jsonl.key_is s !start klen k)
      then refuse "missing field %s at offset %d, found %S" k (at - off) (String.sub s at (next - at));
      let voff = !start + klen + 1 in
      let vlen = next - voff in
      (match snd fields.(i) with
      | Int _ -> (
          (* the decimal [Jsonl.add_int] writes, within the int range *)
          if not (Jsonl.is_integer s voff vlen) then bad_value s i voff vlen "an integer";
          match Jsonl.int_at s voff vlen with
          | v -> ints.(i) <- v
          | exception Jsonl.Out_of_range -> bad_value s i voff vlen "an integer")
      | Float _ -> (
          match Jsonl.hex_float_at s voff vlen with
          | f -> floats.(i) <- f
          | exception Jsonl.Not_a_float -> bad_value s i voff vlen "a float written as %h")
      | Text _ when i = hw_db_at -> hw_db := String.sub s voff vlen
      | Text _ -> (
          match memory_kind_at s voff vlen with
          | Some m -> memory := m
          | None -> bad_value s i voff vlen "spm, cache or dram"));
      start := next + 1
    done;
    if !start <= n then
      refuse "%S after the last field at offset %d" (String.sub s (!start - 1) (n - !start + 1))
        (!start - 1 - off)
  with
  | exception Refused e -> Error e
  | () ->
      let p =
        {
          memory = !memory;
          read_ports = ints.(9);
          write_ports = ints.(11);
          banks = ints.(0);
          cache_bytes = ints.(1);
          fu_limit = ints.(4);
          unroll = ints.(10);
          junroll = ints.(6);
          clock_mhz = floats.(2);
          node_nm = ints.(8);
          cycle_time_ns = floats.(3);
          hw_db = !hw_db;
        }
      in
      let q = canonical p in
      if q == p then Ok p
      else
        (* a knob the memory kind ignores must be 0, as [to_compact]
           writes it: two spellings would be two answers for one design *)
        let k =
          if p.banks <> q.banks then "banks"
          else if p.cache_bytes <> q.cache_bytes then "cache_bytes"
          else if p.read_ports <> q.read_ports then "read_ports"
          else "write_ports"
        in
        Error
          (Printf.sprintf "point: field %s must be 0 for a %s point" k
             (memory_kind_to_string p.memory))

let of_compact s = of_compact_sub s 0 (String.length s)

let to_string p =
  let mem =
    match p.memory with
    | Spm -> Printf.sprintf "spm rd=%d wr=%d banks=%d" p.read_ports p.write_ports p.banks
    | Cache -> Printf.sprintf "cache %dB" p.cache_bytes
    | Dram -> "dram"
  in
  let hw =
    (* only name the hardware when it is not the compiled-in default *)
    if p.hw_db = default.hw_db && p.node_nm = default.node_nm
       && p.cycle_time_ns = default.cycle_time_ns
    then ""
    else
      Printf.sprintf " ct=%gns node=%dnm%s" p.cycle_time_ns p.node_nm
        (if p.hw_db = default.hw_db then "" else " db=" ^ p.hw_db)
  in
  Printf.sprintf "%s fu=%s u=%d j=%d %gMHz%s" mem
    (if p.fu_limit = 0 then "1:1" else string_of_int p.fu_limit)
    p.unroll p.junroll p.clock_mhz hw

(* --- FNV-1a 64-bit ----------------------------------------------------- *)

(* FNV-1a over [epoch=N] for the model epoch, a NUL, the workload
   identity, a NUL, and [k=v;] per canonical field, fed to the hash as
   it is written *)
let fingerprint ~workload p =
  let h = Bytes.create 8 in
  Bytes.set_int64_ne h 0 fnv_offset;
  let sink = Jsonl.To_hash h in
  Jsonl.add_string sink "epoch=";
  Jsonl.add_int sink Salam.model_epoch;
  Jsonl.add_char sink '\x00';
  Jsonl.add_string sink workload;
  Jsonl.add_char sink '\x00';
  add_fields ~term:';' sink p;
  Bytes.get_int64_ne h 0

let fingerprint_hex fp = Printf.sprintf "%016Lx" fp

(* exactly the 16 lowercase hex digits [fingerprint_hex] writes, read
   unsigned modulo 2^64 *)
let fingerprint_at s off len =
  if len <> 16 then None
  else begin
    let h = ref 0L and ok = ref true in
    for j = off to off + 15 do
      match String.unsafe_get s j with
      | '0' .. '9' as c -> h := Int64.logor (Int64.shift_left !h 4) (Int64.of_int (Char.code c - 48))
      | 'a' .. 'f' as c -> h := Int64.logor (Int64.shift_left !h 4) (Int64.of_int (Char.code c - 87))
      | _ -> ok := false
    done;
    if !ok then Some !h else None
  end

let fingerprint_of_hex s = fingerprint_at s 0 (String.length s)
