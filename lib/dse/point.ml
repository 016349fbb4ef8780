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

(* the decimal digits of [n <= 0], most significant first: min_int has
   no positive counterpart *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int n], written straight into [b] *)
let add_int b n =
  if n < 0 then (
    Buffer.add_char b '-';
    add_neg_digits b n)
  else add_neg_digits b (-n)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

(* What [Printf.sprintf "%h" f] writes, without the format machinery:
   ["0x1.f4p+8"], ["-0x0p+0"], ["0x0.0000000000001p-1022"]. *)
let add_hex_float b f =
  if not (Float.is_finite f) then Buffer.add_string b (Printf.sprintf "%h" f)
  else begin
    let bits = Int64.bits_of_float f in
    if bits < 0L then Buffer.add_char b '-';
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let mant = Int64.to_int bits land 0xf_ffff_ffff_ffff in
    Buffer.add_string b (if biased = 0 then "0x0" else "0x1");
    if mant <> 0 then begin
      Buffer.add_char b '.';
      let rest = ref mant and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char b (hex_digit ((!rest lsr !shift) land 0xf));
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    let exp = if biased = 0 then if mant = 0 then 0 else -1022 else biased - 1023 in
    Buffer.add_string b (if exp < 0 then "p" else "p+");
    add_int b exp
  end

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
let add_fields ?term b p =
  let p = canonical p in
  Array.iteri
    (fun i (k, kind) ->
      (match term with None when i > 0 -> Buffer.add_char b ',' | _ -> ());
      Buffer.add_string b k;
      Buffer.add_char b '=';
      (match kind with
      | Int get -> add_int b (get p)
      | Float get -> add_hex_float b (get p)
      | Text get -> Buffer.add_string b (get p));
      match term with Some c -> Buffer.add_char b c | None -> ())
    fields

let to_compact p =
  let b = Buffer.create 192 in
  add_fields b p;
  Buffer.contents b

exception Not_decimal

(* [s.[off .. off+len-1]] read as the decimal [add_int] writes. Raises
   [Not_decimal] on anything else: a sign other than a leading '-', a
   leading zero, "-0" or a value outside the int range. *)
let canonical_int s off len =
  let neg = len > 0 && s.[off] = '-' in
  let first = if neg then off + 1 else off and stop = off + len in
  if first = stop || (s.[first] = '0' && (stop > first + 1 || neg)) then raise Not_decimal;
  (* accumulated negatively so that min_int fits *)
  let acc = ref 0 in
  for j = first to stop - 1 do
    let d = Char.code s.[j] - 48 in
    if d < 0 || d > 9 || !acc < (min_int + d) / 10 then raise Not_decimal;
    acc := (!acc * 10) - d
  done;
  if neg then !acc else if !acc = min_int then raise Not_decimal else - !acc

(* what [add_hex_float] writes, read back; its two NaN spellings read as
   the NaNs the store's codec reads them as *)
let hex_float = function
  | "nan" -> Some Float.nan
  | "-nan" -> Some (Float.neg Float.nan)
  | v -> float_of_string_opt v

(* the first [c] in [s] from [start] on, or [stop] *)
let find s start stop c =
  let j = ref start in
  while !j < stop && s.[!j] <> c do
    incr j
  done;
  !j

let bad_value s i off len what =
  Some (Printf.sprintf "field %s: %S is not %s" (fst fields.(i)) (String.sub s off len) what)

(* positions in [fields]; a missing field is named in this order *)
let memory_at = 7
let required = [ memory_at; 9; 11; 0; 1; 4; 10; 6; 2; 3; 8; 5 ]

let of_compact s =
  let n = String.length s in
  let ints = Array.make n_fields 0 in
  let floats = Array.make n_fields 0.0 in
  let texts = Array.make n_fields "" in
  let spelled = Buffer.create 32 in
  (* the [k=v] pairs from [start] on; [seen] has a bit per field given *)
  let rec pairs start seen =
    let stop = find s start n ',' in
    let eq = find s start stop '=' in
    let eq = if eq = stop then -1 else eq in
    let i = if eq < 0 then -1 else Jsonl.find_key keys s start (eq - start) in
    let voff = eq + 1 in
    let vlen = stop - voff in
    let error =
      if eq < 0 then
        Some (Printf.sprintf "%S is not a key=value pair" (String.sub s start (stop - start)))
      else if i < 0 then Some ("unknown field " ^ String.sub s start (eq - start))
      else if seen land (1 lsl i) <> 0 then
        Some (Printf.sprintf "field %s is given twice" (fst fields.(i)))
      else
        let bad what = bad_value s i voff vlen what in
        match snd fields.(i) with
        | Int _ -> (
            match canonical_int s voff vlen with
            | v ->
                ints.(i) <- v;
                None
            | exception Not_decimal -> bad "an integer")
        | Float _ -> (
            match hex_float (String.sub s voff vlen) with
            | None -> bad "a number"
            | Some f ->
                (* only the spelling [to_compact] writes: one point, one form *)
                Buffer.clear spelled;
                add_hex_float spelled f;
                if Jsonl.key_is s voff vlen (Buffer.contents spelled) then (
                  floats.(i) <- f;
                  None)
                else bad "written as %h")
        | Text _ ->
            texts.(i) <- String.sub s voff vlen;
            if i <> memory_at || memory_kind_of_string texts.(i) <> None then None
            else bad "spm, cache or dram"
    in
    match error with
    | Some e -> Error ("point: " ^ e)
    | None ->
        let seen = seen lor (1 lsl i) in
        if stop = n then Ok seen else pairs (stop + 1) seen
  in
  match pairs 0 0 with
  | Error _ as e -> e
  | Ok seen -> (
      match List.find_opt (fun i -> seen land (1 lsl i) = 0) required with
      | Some i -> Error ("point: missing field " ^ fst fields.(i))
      | None ->
          let p =
            {
              memory = Option.get (memory_kind_of_string texts.(memory_at));
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
              hw_db = texts.(5);
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
                 (memory_kind_to_string p.memory)))

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

(* FNV-1a over the workload identity, a NUL, and [k=v;] per canonical
   field *)
let fingerprint ~workload p =
  let b = Buffer.create (String.length workload + 192) in
  Buffer.add_string b workload;
  Buffer.add_char b '\x00';
  add_fields ~term:';' b p;
  let h = ref fnv_offset in
  for i = 0 to Buffer.length b - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth b i)))) fnv_prime
  done;
  !h

let fingerprint_hex fp = Printf.sprintf "%016Lx" fp

let fingerprint_of_hex s =
  if String.length s <> 16 then None
  else
    (* Int64.of_string overflows to negative for hashes with the top bit
       set, which is exactly what we want: 0x-prefixed parsing is
       unsigned modulo 2^64 *)
    try Some (Int64.of_string ("0x" ^ s)) with Failure _ -> None
