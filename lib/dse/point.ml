module Fu = Salam_hw.Fu

type memory_kind = Spm | Cache | Dram

let memory_kind_to_string = function Spm -> "spm" | Cache -> "cache" | Dram -> "dram"

let memory_kind_of_string = function
  | "spm" -> Some Spm
  | "cache" -> Some Cache
  | "dram" -> Some Dram
  | _ -> None

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
  | Spm -> { p with cache_bytes = 0 }
  | Cache -> { p with read_ports = 0; write_ports = 0; banks = 0 }
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
          { size = p.cache_bytes; line_bytes = 64; ways = 4; hit_latency = 2 }
    | Dram -> Salam.Config.Dram_direct
  in
  {
    Salam.Config.default with
    Salam.Config.clock_mhz = p.clock_mhz;
    memory;
    fu_limits;
    hw;
  }

(* sorted by key: the fingerprint must not depend on the order axes were
   declared in, and record-field order is an implementation detail *)
let to_fields p =
  let p = canonical p in
  [
    ("banks", string_of_int p.banks);
    ("cache_bytes", string_of_int p.cache_bytes);
    ("clock_mhz", Printf.sprintf "%h" p.clock_mhz);
    ("cycle_time_ns", Printf.sprintf "%h" p.cycle_time_ns);
    ("fu_limit", string_of_int p.fu_limit);
    ("hw_db", p.hw_db);
    ("junroll", string_of_int p.junroll);
    ("memory", memory_kind_to_string p.memory);
    ("node_nm", string_of_int p.node_nm);
    ("read_ports", string_of_int p.read_ports);
    ("unroll", string_of_int p.unroll);
    ("write_ports", string_of_int p.write_ports);
  ]

let of_fields fields =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "point: missing field %s" k)
  in
  let int k =
    let* v = get k in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "point: field %s: %S is not an integer" k v)
  in
  let* mem = get "memory" in
  let* memory =
    match memory_kind_of_string mem with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "point: field memory: %S is not spm, cache or dram" mem)
  in
  let* read_ports = int "read_ports" in
  let* write_ports = int "write_ports" in
  let* banks = int "banks" in
  let* cache_bytes = int "cache_bytes" in
  let* fu_limit = int "fu_limit" in
  let* unroll = int "unroll" in
  let* junroll = int "junroll" in
  let float k =
    let* v = get k in
    (* [%h] renders, and [float_of_string] parses, hex floats exactly *)
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "point: field %s: %S is not a number" k v)
  in
  let* clock_mhz = float "clock_mhz" in
  let* cycle_time_ns = float "cycle_time_ns" in
  let* node_nm = int "node_nm" in
  let* hw_db = get "hw_db" in
  Ok
    (canonical
       {
         memory;
         read_ports;
         write_ports;
         banks;
         cache_bytes;
         fu_limit;
         unroll;
         junroll;
         clock_mhz;
         node_nm;
         cycle_time_ns;
         hw_db;
       })

let to_compact p =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (to_fields p))

let of_compact s =
  let kvs = String.split_on_char ',' s in
  let rec parse acc = function
    | [] -> of_fields (List.rev acc)
    | kv :: rest -> (
        match String.index_opt kv '=' with
        | Some i ->
            parse
              ((String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)) :: acc)
              rest
        | None -> Error (Printf.sprintf "point: %S is not a key=value pair" kv))
  in
  parse [] kvs

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

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let fingerprint ~workload p =
  let h = fnv_string fnv_offset workload in
  let h = fnv_string h "\x00" in
  List.fold_left
    (fun h (k, v) -> fnv_string (fnv_string (fnv_string h k) "=") (v ^ ";"))
    h (to_fields p)

let fingerprint_hex fp = Printf.sprintf "%016Lx" fp

let fingerprint_of_hex s =
  if String.length s <> 16 then None
  else
    (* Int64.of_string overflows to negative for hashes with the top bit
       set, which is exactly what we want: 0x-prefixed parsing is
       unsigned modulo 2^64 *)
    try Some (Int64.of_string ("0x" ^ s)) with Failure _ -> None
