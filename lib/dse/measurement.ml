module Engine = Salam_engine.Engine
module Fu = Salam_hw.Fu

type t = {
  fp : int64;
  workload : string;
  point : Point.t;
  cycles : int64;
  seconds : float;
  total_mw : float;
  datapath_mw : float;
  area_um2 : float;
  correct : bool;
  active_cycles : int;
  issue_cycles : int;
  stall_cycles : int;
  stall_load_only : int;
  stall_load_compute : int;
  stall_load_store_compute : int;
  stall_other : int;
  cycles_with_load : int;
  cycles_with_store : int;
  cycles_with_load_and_store : int;
  loads_issued : int;
  stores_issued : int;
  issued_fp : int;
  issued_int : int;
  issued_mem : int;
  fmul_occupancy : float;
  fmul_allocated : int;
  spm_reads : int;
  spm_writes : int;
  cache_hits : int;
  cache_misses : int;
}

let of_result ~workload ~point (r : Salam.result) =
  let s = r.Salam.stats in
  let p = r.Salam.power in
  let spm_reads, spm_writes =
    match r.Salam.spm_accesses with Some (rd, wr) -> (rd, wr) | None -> (0, 0)
  in
  let cache_hits, cache_misses =
    match r.Salam.cache_hits_misses with Some (h, m) -> (h, m) | None -> (0, 0)
  in
  {
    fp = Point.fingerprint ~workload point;
    workload;
    point = Point.canonical point;
    cycles = r.Salam.cycles;
    seconds = r.Salam.seconds;
    total_mw = Salam.total_mw p;
    datapath_mw = Salam.datapath_mw p;
    area_um2 = r.Salam.area_um2;
    correct = r.Salam.correct;
    active_cycles = s.Engine.active_cycles;
    issue_cycles = s.Engine.issue_cycles;
    stall_cycles = s.Engine.stall_cycles;
    stall_load_only = s.Engine.stall_load_only;
    stall_load_compute = s.Engine.stall_load_compute;
    stall_load_store_compute = s.Engine.stall_load_store_compute;
    stall_other = s.Engine.stall_other;
    cycles_with_load = s.Engine.cycles_with_load;
    cycles_with_store = s.Engine.cycles_with_store;
    cycles_with_load_and_store = s.Engine.cycles_with_load_and_store;
    loads_issued = s.Engine.loads_issued;
    stores_issued = s.Engine.stores_issued;
    issued_fp = s.Engine.issued_fp;
    issued_int = s.Engine.issued_int;
    issued_mem = s.Engine.issued_mem;
    fmul_occupancy = Salam.fu_occupancy r Fu.Fp_mul_dp;
    fmul_allocated =
      (match List.assoc_opt Fu.Fp_mul_dp r.Salam.fu_allocated with
      | Some n -> n
      | None -> 0);
    spm_reads;
    spm_writes;
    cache_hits;
    cache_misses;
  }

(* --- JSONL codec -------------------------------------------------------- *)

type kind = Fp | Text | Memory | Int | Int64 | Float | Bool

let int n = Jsonl.Int (Int64.of_int n)

(* The one field table: every key, in line order, with the kind its
   value must have and how to read it off a measurement. [to_line]
   walks it; the decoder reads the fields in the same order. *)
let fields : (string * kind * (t -> Jsonl.value)) array =
  [|
    ("fp", Fp, fun m -> Jsonl.Str (Point.fingerprint_hex m.fp));
    ("workload", Text, fun m -> Jsonl.Str m.workload);
    ("memory", Memory, fun m -> Jsonl.Str (Point.memory_kind_to_string m.point.Point.memory));
    ("read_ports", Int, fun m -> int m.point.Point.read_ports);
    ("write_ports", Int, fun m -> int m.point.Point.write_ports);
    ("banks", Int, fun m -> int m.point.Point.banks);
    ("cache_bytes", Int, fun m -> int m.point.Point.cache_bytes);
    ("fu_limit", Int, fun m -> int m.point.Point.fu_limit);
    ("unroll", Int, fun m -> int m.point.Point.unroll);
    ("junroll", Int, fun m -> int m.point.Point.junroll);
    ("clock_mhz", Float, fun m -> Jsonl.Float m.point.Point.clock_mhz);
    ("node_nm", Int, fun m -> int m.point.Point.node_nm);
    ("cycle_time_ns", Float, fun m -> Jsonl.Float m.point.Point.cycle_time_ns);
    ("hw_db", Text, fun m -> Jsonl.Str m.point.Point.hw_db);
    ("cycles", Int64, fun m -> Jsonl.Int m.cycles);
    ("seconds", Float, fun m -> Jsonl.Float m.seconds);
    ("total_mw", Float, fun m -> Jsonl.Float m.total_mw);
    ("datapath_mw", Float, fun m -> Jsonl.Float m.datapath_mw);
    ("area_um2", Float, fun m -> Jsonl.Float m.area_um2);
    ("correct", Bool, fun m -> Jsonl.Bool m.correct);
    ("active_cycles", Int, fun m -> int m.active_cycles);
    ("issue_cycles", Int, fun m -> int m.issue_cycles);
    ("stall_cycles", Int, fun m -> int m.stall_cycles);
    ("stall_load_only", Int, fun m -> int m.stall_load_only);
    ("stall_load_compute", Int, fun m -> int m.stall_load_compute);
    ("stall_load_store_compute", Int, fun m -> int m.stall_load_store_compute);
    ("stall_other", Int, fun m -> int m.stall_other);
    ("cycles_with_load", Int, fun m -> int m.cycles_with_load);
    ("cycles_with_store", Int, fun m -> int m.cycles_with_store);
    ("cycles_with_load_and_store", Int, fun m -> int m.cycles_with_load_and_store);
    ("loads_issued", Int, fun m -> int m.loads_issued);
    ("stores_issued", Int, fun m -> int m.stores_issued);
    ("issued_fp", Int, fun m -> int m.issued_fp);
    ("issued_int", Int, fun m -> int m.issued_int);
    ("issued_mem", Int, fun m -> int m.issued_mem);
    ("fmul_occupancy", Float, fun m -> Jsonl.Float m.fmul_occupancy);
    ("fmul_allocated", Int, fun m -> int m.fmul_allocated);
    ("spm_reads", Int, fun m -> int m.spm_reads);
    ("spm_writes", Int, fun m -> int m.spm_writes);
    ("cache_hits", Int, fun m -> int m.cache_hits);
    ("cache_misses", Int, fun m -> int m.cache_misses);
  |]

let to_line m =
  let b = Buffer.create 1024 in
  let sink = Jsonl.To_buffer b in
  Array.iteri (fun i (k, _, get) -> Jsonl.add_member sink ~first:(i = 0) k (get m)) fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- the positional decoder ------------------------------------------ *)

(* what a line writes before each field's value after its '{' or ',' *)
let heads = Array.map (fun (k, _, _) -> "\"" ^ k ^ "\":") fields

type problem = Missing | Wrong_kind | Out_of_range

exception Refused of string

(* field [i] cannot be read, its head expected at the cursor *)
let refuse (c : Jsonl.cursor) i why =
  let k, kind, _ = fields.(i) in
  let bad reason = Printf.sprintf "field %S %s" k reason in
  raise
    (Refused
       (match why with
       | Missing -> Printf.sprintf "missing field %S at offset %d" k (Jsonl.offset c)
       | Out_of_range -> bad "is outside the int range"
       | Wrong_kind -> (
           match kind with
           | Fp -> bad "must be a 16-digit hex fingerprint"
           | Text -> bad "must be a string"
           | Memory -> bad "must be \"spm\", \"cache\" or \"dram\""
           | Int | Int64 -> bad "must be an integer"
           | Float -> bad "must be a number"
           | Bool -> bad "must be a boolean")))

(* Each field is read where the writer puts it: its head right at the
   cursor, then its value by its kind. *)
let[@inline] field c i = if not (Jsonl.head c heads.(i)) then refuse c i Missing

(* the field's value, which must be a [kind] token *)
let[@inline] token (c : Jsonl.cursor) i kind =
  Jsonl.value c;
  if c.kind <> kind then refuse c i Wrong_kind

(* a bare integer is read straight off the line *)
let get_int (c : Jsonl.cursor) i =
  field c i;
  if Jsonl.plain_int c then c.int
  else begin
    token c i Jsonl.Integer;
    match Jsonl.int_at c.src c.off c.len with
    | n -> n
    | exception Jsonl.Out_of_range -> refuse c i Out_of_range
  end

let get_int64 (c : Jsonl.cursor) i =
  field c i;
  if Jsonl.plain_int c then Int64.of_int c.int
  else begin
    token c i Jsonl.Integer;
    Jsonl.int64_at c.src c.off c.len
  end

let get_float (c : Jsonl.cursor) i =
  field c i;
  token c i Jsonl.String;
  match Jsonl.hex_float_at c.src c.off c.len with
  | f -> f
  | exception Jsonl.Not_a_float -> refuse c i Wrong_kind

let get_text (c : Jsonl.cursor) i =
  field c i;
  token c i Jsonl.String;
  String.sub c.src c.off c.len

let get_bool (c : Jsonl.cursor) i =
  field c i;
  Jsonl.value c;
  match c.kind with Jsonl.True -> true | Jsonl.False -> false | _ -> refuse c i Wrong_kind

let get_fp (c : Jsonl.cursor) i =
  field c i;
  token c i Jsonl.String;
  match Point.fingerprint_at c.src c.off c.len with Some fp -> fp | None -> refuse c i Wrong_kind

let get_memory (c : Jsonl.cursor) i =
  field c i;
  token c i Jsonl.String;
  match Point.memory_kind_at c.src c.off c.len with
  | Some m -> m
  | None -> refuse c i Wrong_kind

let of_cursor c =
  match
    (* the fields in [fields] order: a [let] chain reads them in turn *)
    let fp = get_fp c 0 in
    let workload = get_text c 1 in
    let memory = get_memory c 2 in
    let read_ports = get_int c 3 in
    let write_ports = get_int c 4 in
    let banks = get_int c 5 in
    let cache_bytes = get_int c 6 in
    let fu_limit = get_int c 7 in
    let unroll = get_int c 8 in
    let junroll = get_int c 9 in
    let clock_mhz = get_float c 10 in
    let node_nm = get_int c 11 in
    let cycle_time_ns = get_float c 12 in
    let hw_db = get_text c 13 in
    let cycles = get_int64 c 14 in
    let seconds = get_float c 15 in
    let total_mw = get_float c 16 in
    let datapath_mw = get_float c 17 in
    let area_um2 = get_float c 18 in
    let correct = get_bool c 19 in
    let active_cycles = get_int c 20 in
    let issue_cycles = get_int c 21 in
    let stall_cycles = get_int c 22 in
    let stall_load_only = get_int c 23 in
    let stall_load_compute = get_int c 24 in
    let stall_load_store_compute = get_int c 25 in
    let stall_other = get_int c 26 in
    let cycles_with_load = get_int c 27 in
    let cycles_with_store = get_int c 28 in
    let cycles_with_load_and_store = get_int c 29 in
    let loads_issued = get_int c 30 in
    let stores_issued = get_int c 31 in
    let issued_fp = get_int c 32 in
    let issued_int = get_int c 33 in
    let issued_mem = get_int c 34 in
    let fmul_occupancy = get_float c 35 in
    let fmul_allocated = get_int c 36 in
    let spm_reads = get_int c 37 in
    let spm_writes = get_int c 38 in
    let cache_hits = get_int c 39 in
    let cache_misses = get_int c 40 in
    Jsonl.close c;
    {
      fp;
      workload;
      point =
        {
          Point.memory;
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
        };
      cycles;
      seconds;
      total_mw;
      datapath_mw;
      area_um2;
      correct;
      active_cycles;
      issue_cycles;
      stall_cycles;
      stall_load_only;
      stall_load_compute;
      stall_load_store_compute;
      stall_other;
      cycles_with_load;
      cycles_with_store;
      cycles_with_load_and_store;
      loads_issued;
      stores_issued;
      issued_fp;
      issued_int;
      issued_mem;
      fmul_occupancy;
      fmul_allocated;
      spm_reads;
      spm_writes;
      cache_hits;
      cache_misses;
    }
  with
  | m -> Ok m
  | exception Refused e -> Error e

let of_line line =
  match of_cursor (Jsonl.cursor line) with r -> r | exception Jsonl.Syntax e -> Error e

let pp_header fmt () =
  Format.fprintf fmt "%-34s %10s %12s %12s %12s %10s %9s@." "configuration" "cycles"
    "time (us)" "datapath mW" "total mW" "area um2" "stall %"

let pp_row fmt m =
  Format.fprintf fmt "%-34s %10Ld %12.2f %12.2f %12.2f %10.0f %8.1f%%@."
    (Point.to_string m.point) m.cycles (m.seconds *. 1e6) m.datapath_mw m.total_mw
    m.area_um2
    (100.0 *. float_of_int m.stall_cycles /. float_of_int (max 1 m.active_cycles))
