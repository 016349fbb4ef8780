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
    datapath_mw =
      p.Salam.dynamic_fu_mw +. p.Salam.dynamic_reg_mw +. p.Salam.static_fu_mw
      +. p.Salam.static_reg_mw;
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
   walks it; decoding fills typed slots by the same positions. *)
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
  Array.iteri (fun i (k, _, get) -> Jsonl.add_member b ~first:(i = 0) k (get m)) fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- typed slots ---------------------------------------------------- *)

(* Decoding fills one slot per field, each typed by its field's kind:
   [Int] fields in [ints], [Float] fields in [floats], [Text] fields in
   [texts] (at [sub.(i)], the field's place among its kind), the other
   kinds in a field of their own. [state.[i]] says whether field [i] is
   still empty, holds its kind, or holds a value that cannot be read as
   its kind. *)
type slots = {
  mutable next : int;  (** the field a canonical line names next *)
  state : Bytes.t;
  ints : int array;
  floats : float array;
  texts : string array;
  mutable fp : int64;
  mutable memory : Point.memory_kind;
  mutable cycles : int64;
  mutable correct : bool;
}

let n_fields = Array.length fields
let empty = '\000'
let held = '\001'
let wrong_kind = 'w'
let out_of_range = 'r'

let name i =
  let k, _, _ = fields.(i) in
  k

(* how many fields before field [i] are of [kind] *)
let count_before i kind =
  let n = ref 0 in
  for j = 0 to i - 1 do
    let _, k, _ = fields.(j) in
    if k = kind then incr n
  done;
  !n

let sub = Array.mapi (fun i (_, kind, _) -> count_before i kind) fields
let n_ints = count_before n_fields Int
let n_floats = count_before n_fields Float
let n_texts = count_before n_fields Text

(* fields by key length: a key out of canonical order is looked up
   among the few fields its length allows *)
let by_length =
  let longest = Array.fold_left (fun m (k, _, _) -> max m (String.length k)) 0 fields in
  Array.init (longest + 1) (fun len ->
      Array.of_seq
        (Seq.filter (fun i -> String.length (name i) = len) (Seq.init n_fields Fun.id)))

let slots () =
  {
    next = 0;
    state = Bytes.make n_fields empty;
    ints = Array.make n_ints 0;
    floats = Array.make n_floats 0.0;
    texts = Array.make n_texts "";
    fp = 0L;
    memory = Point.Spm;
    cycles = 0L;
    correct = false;
  }

(* the field a key names, or -1: the one a canonical line names next is
   tried before any lookup *)
let field_of s src off len =
  if s.next < n_fields && Jsonl.key_is src off len (name s.next) then s.next
  else if len >= Array.length by_length then -1
  else
    let bucket = by_length.(len) in
    let j = ref 0 in
    while !j < Array.length bucket && not (Jsonl.key_is src off len (name bucket.(!j))) do
      incr j
    done;
    if !j < Array.length bucket then bucket.(!j) else -1

(* fill empty slot [i] from the token, or record why it is not of the
   field's kind: numbers are read straight from the line into the slot *)
let hold s i kind src off len =
  let _, field_kind, _ = fields.(i) in
  let state =
    match (field_kind, kind) with
    | Fp, Jsonl.String -> (
        match Point.fingerprint_at src off len with
        | Some fp ->
            s.fp <- fp;
            held
        | None -> wrong_kind)
    | Text, Jsonl.String ->
        s.texts.(sub.(i)) <- String.sub src off len;
        held
    | Memory, Jsonl.String -> (
        match Point.memory_kind_at src off len with
        | Some m ->
            s.memory <- m;
            held
        | None -> wrong_kind)
    | Int, Jsonl.Integer -> (
        match Jsonl.int_at src off len with
        | n ->
            s.ints.(sub.(i)) <- n;
            held
        | exception Jsonl.Out_of_range -> out_of_range)
    | Int64, Jsonl.Integer ->
        s.cycles <- Jsonl.int64_at src off len;
        held
    | Float, _ -> (
        match Jsonl.float_at kind src off len with
        | f ->
            s.floats.(sub.(i)) <- f;
            held
        | exception Jsonl.Not_a_float -> wrong_kind)
    | Bool, (Jsonl.True | Jsonl.False) ->
        s.correct <- kind = Jsonl.True;
        held
    | (Fp | Text | Memory | Int | Int64 | Bool), _ -> wrong_kind
  in
  Bytes.unsafe_set s.state i state

(* the first value of a key wins, as a lookup by key would find it *)
let fill s ksrc koff klen kind src off len =
  let i = field_of s ksrc koff klen in
  i >= 0
  && begin
       s.next <- i + 1;
       if Bytes.unsafe_get s.state i = empty then hold s i kind src off len;
       true
     end

(* why field [i] cannot be read, if it cannot *)
let problem s i =
  let c = Bytes.get s.state i in
  if c = held then None
  else
    let k, kind, _ = fields.(i) in
    let bad reason = Some (Printf.sprintf "field %S %s" k reason) in
    if c = empty then Some (Printf.sprintf "missing field %S" k)
    else if c = out_of_range then bad "is outside the int range"
    else
      match kind with
      | Fp -> bad "must be a 16-digit hex fingerprint"
      | Text -> bad "must be a string"
      | Memory -> bad "must be \"spm\", \"cache\" or \"dram\""
      | Int | Int64 -> bad "must be an integer"
      | Float -> bad "must be a number"
      | Bool -> bad "must be a boolean"

let of_slots s =
  let rec first_problem i =
    if i = n_fields then None
    else match problem s i with Some _ as p -> p | None -> first_problem (i + 1)
  in
  match first_problem 0 with
  | Some e -> Error e
  | None ->
      (* every slot holds its kind now: read them by field position *)
      let int i = s.ints.(sub.(i)) in
      let float i = s.floats.(sub.(i)) in
      let text i = s.texts.(sub.(i)) in
      Ok
        {
          fp = s.fp;
          workload = text 1;
          point =
            {
              Point.memory = s.memory;
              read_ports = int 3;
              write_ports = int 4;
              banks = int 5;
              cache_bytes = int 6;
              fu_limit = int 7;
              unroll = int 8;
              junroll = int 9;
              clock_mhz = float 10;
              node_nm = int 11;
              cycle_time_ns = float 12;
              hw_db = text 13;
            };
          cycles = s.cycles;
          seconds = float 15;
          total_mw = float 16;
          datapath_mw = float 17;
          area_um2 = float 18;
          correct = s.correct;
          active_cycles = int 20;
          issue_cycles = int 21;
          stall_cycles = int 22;
          stall_load_only = int 23;
          stall_load_compute = int 24;
          stall_load_store_compute = int 25;
          stall_other = int 26;
          cycles_with_load = int 27;
          cycles_with_store = int 28;
          cycles_with_load_and_store = int 29;
          loads_issued = int 30;
          stores_issued = int 31;
          issued_fp = int 32;
          issued_int = int 33;
          issued_mem = int 34;
          fmul_occupancy = float 35;
          fmul_allocated = int 36;
          spm_reads = int 37;
          spm_writes = int 38;
          cache_hits = int 39;
          cache_misses = int 40;
        }

let of_line line =
  let s = slots () in
  match
    Jsonl.iter_fields line (fun ksrc koff klen kind src off len ->
        ignore (fill s ksrc koff klen kind src off len))
  with
  | Ok () -> of_slots s
  | Error _ as e -> e

let pp_header fmt () =
  Format.fprintf fmt "%-34s %10s %12s %12s %12s %10s %9s@." "configuration" "cycles"
    "time (us)" "datapath mW" "total mW" "area um2" "stall %"

let pp_row fmt m =
  Format.fprintf fmt "%-34s %10Ld %12.2f %12.2f %12.2f %10.0f %8.1f%%@."
    (Point.to_string m.point) m.cycles (m.seconds *. 1e6) m.datapath_mw m.total_mw
    m.area_um2
    (100.0 *. float_of_int m.stall_cycles /. float_of_int (max 1 m.active_cycles))
