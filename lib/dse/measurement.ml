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
   walks it; the decoder reads the fields by the same positions. *)
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

let n_fields = Array.length fields

let name i =
  let k, _, _ = fields.(i) in
  k

(* what a canonical line writes before each field's value after its
   '{' or ',' *)
let heads = Array.map (fun (k, _, _) -> "\"" ^ k ^ "\":") fields

(* fields by key length: a key out of canonical order is looked up
   among the few fields its length allows *)
let by_length =
  let longest = Array.fold_left (fun m (k, _, _) -> max m (String.length k)) 0 fields in
  Array.init (longest + 1) (fun len ->
      Array.of_seq
        (Seq.filter (fun i -> String.length (name i) = len) (Seq.init n_fields Fun.id)))

(* the field the cursor's last key names, or -1 *)
let field_of (c : Jsonl.cursor) =
  if c.klen >= Array.length by_length then -1
  else
    let bucket = by_length.(c.klen) in
    let j = ref 0 in
    while !j < Array.length bucket && not (Jsonl.key_is c.ksrc c.koff c.klen (name bucket.(!j))) do
      incr j
    done;
    if !j < Array.length bucket then bucket.(!j) else -1

(* A value met before its field's canonical place, kept until the
   decoder reaches that field; [absent] when there is none. *)
type token = { kind : Jsonl.kind; src : string; off : int; len : int }

let absent = { kind = Jsonl.True; src = ""; off = 0; len = -1 }

type problem = Missing | Wrong_kind | Out_of_range

(* The decoder reads the fields in canonical order. Each is read where
   that order puts it when the line has it there (its head right at the
   cursor); any other member is read whole and looked up by key, and a
   field's value found before its turn waits in [early]. The first value
   of a key wins, as a lookup by key would find it. *)
type reader = {
  c : Jsonl.cursor;
  other : Jsonl.cursor -> unit;  (** members that are not measurement fields *)
  mutable early : token array;  (** by field; empty until a member comes early *)
  mutable problem : int;  (** the first field that cannot be read, or -1 *)
  mutable why : problem;
}

(* Field [i] cannot be read: [v] stands in for it. Fields are read in
   canonical order, so the first problem recorded is the first in that
   order. *)
let bad r i why v =
  if r.problem < 0 then begin
    r.problem <- i;
    r.why <- why
  end;
  v

let token (c : Jsonl.cursor) = { kind = c.kind; src = c.src; off = c.off; len = c.len }

(* field [i]'s value is at the cursor, where canonical order puts it,
   and no earlier member gave one: its head has been read *)
let here r i = (Array.length r.early = 0 || r.early.(i) == absent) && Jsonl.head r.c heads.(i)

(* Field [i]'s first value when it is not where canonical order puts it:
   one met early, else the next member that names it. Members for later
   fields wait in [early]; members for earlier fields come after their
   first value and are dropped. [absent] when the line has none. *)
let find r i =
  if Array.length r.early > 0 && r.early.(i) != absent then r.early.(i)
  else begin
    let c = r.c in
    let found = ref absent in
    while !found == absent && Jsonl.member c do
      let j = field_of c in
      if j = i then found := token c
      else if j > i then begin
        if Array.length r.early = 0 then r.early <- Array.make n_fields absent;
        if r.early.(j) == absent then r.early.(j) <- token c
      end
      else if j < 0 then r.other c
    done;
    !found
  end

(* Each field is read by its kind, by a [conv] that takes the token
   and checks it: from the cursor after [here], else from the token
   [find] returns. A value of the wrong kind, or none, is recorded and
   stands in as a zero. *)
let[@inline] at_cursor r i conv =
  let c = r.c in
  Jsonl.value c;
  conv r i c.kind c.src c.off c.len

let[@inline] elsewhere r i conv =
  let t = find r i in
  conv r i t.kind t.src t.off t.len

let int_of r i kind src off len =
  if len < 0 then bad r i Missing 0
  else if kind <> Jsonl.Integer then bad r i Wrong_kind 0
  else
    match Jsonl.int_at src off len with
    | n -> n
    | exception Jsonl.Out_of_range -> bad r i Out_of_range 0

let int64_of r i kind src off len =
  if len < 0 then bad r i Missing 0L
  else if kind <> Jsonl.Integer then bad r i Wrong_kind 0L
  else Jsonl.int64_at src off len

let float_of r i kind src off len =
  if len < 0 then bad r i Missing 0.0
  else
    match Jsonl.float_at kind src off len with
    | f -> f
    | exception Jsonl.Not_a_float -> bad r i Wrong_kind 0.0

let text_of r i kind src off len =
  if len < 0 then bad r i Missing ""
  else if kind <> Jsonl.String then bad r i Wrong_kind ""
  else String.sub src off len

let bool_of r i kind _ _ len =
  if len < 0 then bad r i Missing false
  else match kind with Jsonl.True -> true | Jsonl.False -> false | _ -> bad r i Wrong_kind false

let fp_of r i kind src off len =
  if len < 0 then bad r i Missing 0L
  else if kind <> Jsonl.String then bad r i Wrong_kind 0L
  else
    match Point.fingerprint_at src off len with Some fp -> fp | None -> bad r i Wrong_kind 0L

let memory_of r i kind src off len =
  if len < 0 then bad r i Missing Point.Spm
  else if kind <> Jsonl.String then bad r i Wrong_kind Point.Spm
  else
    match Point.memory_kind_at src off len with Some m -> m | None -> bad r i Wrong_kind Point.Spm

(* a bare integer is read straight off the line *)
let get_int r i =
  if here r i then if Jsonl.plain_int r.c then r.c.int else at_cursor r i int_of
  else elsewhere r i int_of

let get_int64 r i =
  if here r i then if Jsonl.plain_int r.c then Int64.of_int r.c.int else at_cursor r i int64_of
  else elsewhere r i int64_of

let get_float r i = if here r i then at_cursor r i float_of else elsewhere r i float_of

let get_text r i = if here r i then at_cursor r i text_of else elsewhere r i text_of
let get_bool r i = if here r i then at_cursor r i bool_of else elsewhere r i bool_of
let get_fp r i = if here r i then at_cursor r i fp_of else elsewhere r i fp_of
let get_memory r i = if here r i then at_cursor r i memory_of else elsewhere r i memory_of

(* why field [i] cannot be read *)
let message i why =
  let k, kind, _ = fields.(i) in
  let bad reason = Printf.sprintf "field %S %s" k reason in
  match why with
  | Missing -> Printf.sprintf "missing field %S" k
  | Out_of_range -> bad "is outside the int range"
  | Wrong_kind -> (
      match kind with
      | Fp -> bad "must be a 16-digit hex fingerprint"
      | Text -> bad "must be a string"
      | Memory -> bad "must be \"spm\", \"cache\" or \"dram\""
      | Int | Int64 -> bad "must be an integer"
      | Float -> bad "must be a number"
      | Bool -> bad "must be a boolean")

let of_cursor ?(other = ignore) c =
  let r = { c; other; early = [||]; problem = -1; why = Missing } in
  (* the fields in [fields] order: a [let] chain reads them in turn *)
  let fp = get_fp r 0 in
  let workload = get_text r 1 in
  let memory = get_memory r 2 in
  let read_ports = get_int r 3 in
  let write_ports = get_int r 4 in
  let banks = get_int r 5 in
  let cache_bytes = get_int r 6 in
  let fu_limit = get_int r 7 in
  let unroll = get_int r 8 in
  let junroll = get_int r 9 in
  let clock_mhz = get_float r 10 in
  let node_nm = get_int r 11 in
  let cycle_time_ns = get_float r 12 in
  let hw_db = get_text r 13 in
  let cycles = get_int64 r 14 in
  let seconds = get_float r 15 in
  let total_mw = get_float r 16 in
  let datapath_mw = get_float r 17 in
  let area_um2 = get_float r 18 in
  let correct = get_bool r 19 in
  let active_cycles = get_int r 20 in
  let issue_cycles = get_int r 21 in
  let stall_cycles = get_int r 22 in
  let stall_load_only = get_int r 23 in
  let stall_load_compute = get_int r 24 in
  let stall_load_store_compute = get_int r 25 in
  let stall_other = get_int r 26 in
  let cycles_with_load = get_int r 27 in
  let cycles_with_store = get_int r 28 in
  let cycles_with_load_and_store = get_int r 29 in
  let loads_issued = get_int r 30 in
  let stores_issued = get_int r 31 in
  let issued_fp = get_int r 32 in
  let issued_int = get_int r 33 in
  let issued_mem = get_int r 34 in
  let fmul_occupancy = get_float r 35 in
  let fmul_allocated = get_int r 36 in
  let spm_reads = get_int r 37 in
  let spm_writes = get_int r 38 in
  let cache_hits = get_int r 39 in
  let cache_misses = get_int r 40 in
  (* the members after the last field's first value *)
  while Jsonl.member c do
    if field_of c < 0 then other c
  done;
  if r.problem >= 0 then Error (message r.problem r.why)
  else
    Ok
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
