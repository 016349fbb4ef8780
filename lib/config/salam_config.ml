(* Loadable hardware characterization database.

   The real salam-config package ships gem5-SALAM's validated 40 nm
   profile as a *database*: every functional unit characterized at a set
   of cycle times with per-op latency/power/energy/area, queryable from
   a CLI. This module is that database for our FU model: a versioned
   plain-text table format with a strict parser (loud failure on unknown
   FUs, duplicate records, missing cycle-time coverage or malformed
   numbers — the same discipline as the DSE store's codec), an
   interpolation-free profile lookup, and a process-wide registry keyed
   by content hash so design points can name the exact table they were
   measured under.

   Format (one record per line, `#` comments and blank lines ignored):

     salam-hwdb 1
     name salam-40nm
     node 40
     cycle_times 1 2 3 4 5 6 10
     reg <ct> area_um2_per_bit=<f> leak_mw_per_bit=<f> read_pj_per_bit=<f> write_pj_per_bit=<f>
     fu <class> <ct> latency=<n> pipelined=<0|1> area_um2=<f> leakage_mw=<f> dynamic_pj=<f>
     ...
     end <record-count>

   Every declared cycle time must be covered by exactly one `reg` record
   and one `fu` record per functional-unit class; the trailing `end`
   line carries the record count so a truncated file is rejected, not
   silently accepted with whatever survived. *)

module Fu = Salam_hw.Fu
module Profile = Salam_hw.Profile

type reg_spec = {
  r_area_um2_per_bit : float;
  r_leak_mw_per_bit : float;
  r_read_pj_per_bit : float;
  r_write_pj_per_bit : float;
}

type t = {
  db_name : string;
  db_node_nm : int;
  db_cycle_times : float list;  (* ascending, distinct *)
  db_fus : ((Fu.cls * float) * Profile.fu_spec) list;  (* keyed (class, cycle time) *)
  db_regs : (float * reg_spec) list;
}

let name t = t.db_name
let node_nm t = t.db_node_nm
let cycle_times t = t.db_cycle_times

let clock_mhz_of_cycle_time ct = 1000.0 /. ct

(* --- canonical text rendering ------------------------------------------- *)

(* the C formatter behind [string_of_float] and [Printf]'s [%g]: the
   same bytes as [Printf.sprintf "%.*g" p], without building the format
   on every call *)
external format_float : string -> float -> string = "caml_format_float"

(* [g_formats.(p)] is "%.<p>g" *)
let g_formats = Array.init 18 (fun p -> "%." ^ string_of_int p ^ "g")

(* shortest decimal that round-trips: human-readable where possible
   ("0.0035", "480"), never lossy — the shortest [%.<p>g], p in 1..17,
   that reads back to [f]. A normal float's search starts at 15: a
   decimal of at most 15 significant digits survives a normal double
   (DBL_DIG), so when some p <= 15 reads back, [%.15g] prints that same
   decimal ([%g] drops trailing zeros, and its notation differs from
   [%.<p>g]'s only for integers below 1e15, which take [%.0f]).
   Subnormals hold fewer digits and search from 1. *)
let render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else begin
    let rec go p =
      if p > 17 then format_float g_formats.(17) f
      else
        let s = format_float g_formats.(p) f in
        if float_of_string s = f then s else go (p + 1)
    in
    go (if Float.classify_float f = FP_normal then 15 else 1)
  end

let fu_record_line cls ct (s : Profile.fu_spec) =
  Printf.sprintf "fu %s %s latency=%d pipelined=%d area_um2=%s leakage_mw=%s dynamic_pj=%s"
    (Fu.to_string cls) (render_float ct) s.Profile.latency
    (if s.Profile.pipelined then 1 else 0)
    (render_float s.Profile.area_um2)
    (render_float s.Profile.leakage_mw)
    (render_float s.Profile.dynamic_pj)

let reg_record_line ct r =
  Printf.sprintf
    "reg %s area_um2_per_bit=%s leak_mw_per_bit=%s read_pj_per_bit=%s write_pj_per_bit=%s"
    (render_float ct) (render_float r.r_area_um2_per_bit)
    (render_float r.r_leak_mw_per_bit) (render_float r.r_read_pj_per_bit)
    (render_float r.r_write_pj_per_bit)

(* Canonical form: header, register section, then FU records grouped by
   class in [Fu.all] order with cycle times ascending. [parse] of a
   rendered database reproduces it byte for byte, which is what lets the
   shipped seed file be checked against the compiled-in constants. *)
let render t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "salam-hwdb 1";
  line "name %s" t.db_name;
  line "node %d" t.db_node_nm;
  line "cycle_times %s" (String.concat " " (List.map render_float t.db_cycle_times));
  let records = ref 0 in
  List.iter
    (fun ct ->
      match List.assoc_opt ct t.db_regs with
      | Some r ->
          incr records;
          line "%s" (reg_record_line ct r)
      | None -> ())
    t.db_cycle_times;
  List.iter
    (fun cls ->
      List.iter
        (fun ct ->
          match List.assoc_opt (cls, ct) t.db_fus with
          | Some s ->
              incr records;
              line "%s" (fu_record_line cls ct s)
          | None -> ())
        t.db_cycle_times)
    Fu.all;
  line "end %d" !records;
  Buffer.contents buf

(* --- content hash -------------------------------------------------------- *)

(* FNV-1a 64 over the canonical text — the same hash family the DSE
   fingerprints use. The hex form is the database's identity everywhere:
   point fields, store entries, the registry. *)
let hash t =
  let text = render t in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length text - 1 do
    let c = Int64.of_int (Char.code text.[i]) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

(* --- strict parser ------------------------------------------------------- *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let fu_of_string s = List.find_opt (fun cls -> Fu.to_string cls = s) Fu.all

let parse_float ~line ~what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> f
  | Some _ | None -> failf "line %d: %s: %S is not a finite number" line what s

let parse_pos_float ~line ~what s =
  let f = parse_float ~line ~what s in
  if f <= 0.0 then failf "line %d: %s must be positive, got %S" line what s;
  f

(* key=value fields, required in exactly the given order — the canonical
   renderer emits them that way and hand-edited tables that drop, repeat
   or reorder a field are mistakes worth hearing about *)
let parse_kvs ~line ~keys tokens =
  if List.length tokens <> List.length keys then
    failf "line %d: expected fields %s, got %d token(s)" line (String.concat " " keys)
      (List.length tokens);
  List.map2
    (fun key tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
          String.sub tok (i + 1) (String.length tok - i - 1)
      | Some _ | None -> failf "line %d: expected %s=<value>, got %S" line key tok)
    keys tokens

let parse text =
  try
    let lines = String.split_on_char '\n' text in
    let name = ref None and node = ref None and cycle_times = ref None in
    let fus = ref [] and regs = ref [] in
    let finished = ref None in
    let header_seen = ref false in
    let declared ~line ct =
      match !cycle_times with
      | None -> failf "line %d: record before the cycle_times declaration" line
      | Some cts ->
          if not (List.mem ct cts) then
            failf "line %d: cycle time %s is not declared in cycle_times" line
              (render_float ct);
          ct
    in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then ()
        else if !finished <> None then
          failf "line %d: content after the end record" lineno
        else if not !header_seen then begin
          if line <> "salam-hwdb 1" then
            failf "line %d: not a salam-hwdb version 1 file (got %S)" lineno line;
          header_seen := true
        end
        else
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ "name"; n ] ->
              if !name <> None then failf "line %d: duplicate name declaration" lineno;
              name := Some n
          | [ "node"; n ] -> (
              if !node <> None then failf "line %d: duplicate node declaration" lineno;
              match int_of_string_opt n with
              | Some v when v > 0 -> node := Some v
              | Some _ | None ->
                  failf "line %d: node: %S is not a positive integer" lineno n)
          | "cycle_times" :: cts -> (
              if !cycle_times <> None then
                failf "line %d: duplicate cycle_times declaration" lineno;
              if cts = [] then failf "line %d: cycle_times declares no values" lineno;
              let vs =
                List.map (parse_pos_float ~line:lineno ~what:"cycle_times value") cts
              in
              let sorted = List.sort_uniq compare vs in
              if List.length sorted <> List.length vs || sorted <> vs then
                failf "line %d: cycle_times must be distinct and ascending" lineno;
              cycle_times := Some vs)
          | "fu" :: cls_name :: ct :: fields -> (
              match fu_of_string cls_name with
              | None -> failf "line %d: unknown functional unit %S" lineno cls_name
              | Some cls ->
                  let ct =
                    declared ~line:lineno
                      (parse_pos_float ~line:lineno ~what:"fu cycle time" ct)
                  in
                  if List.mem_assoc (cls, ct) !fus then
                    failf "line %d: duplicate record for %s at %sns" lineno
                      (Fu.to_string cls) (render_float ct);
                  let [@warning "-8"] [ lat; pip; area; leak; dyn ] =
                    parse_kvs ~line:lineno
                      ~keys:[ "latency"; "pipelined"; "area_um2"; "leakage_mw"; "dynamic_pj" ]
                      fields
                  in
                  let latency =
                    match int_of_string_opt lat with
                    | Some v when v >= 1 -> v
                    | Some _ | None ->
                        failf "line %d: latency: %S is not a positive integer" lineno lat
                  in
                  let pipelined =
                    match pip with
                    | "1" -> true
                    | "0" -> false
                    | _ -> failf "line %d: pipelined must be 0 or 1, got %S" lineno pip
                  in
                  fus :=
                    ( (cls, ct),
                      {
                        Profile.latency;
                        pipelined;
                        area_um2 = parse_float ~line:lineno ~what:"area_um2" area;
                        leakage_mw = parse_float ~line:lineno ~what:"leakage_mw" leak;
                        dynamic_pj = parse_float ~line:lineno ~what:"dynamic_pj" dyn;
                      } )
                    :: !fus)
          | "reg" :: ct :: fields ->
              let ct =
                declared ~line:lineno
                  (parse_pos_float ~line:lineno ~what:"reg cycle time" ct)
              in
              if List.mem_assoc ct !regs then
                failf "line %d: duplicate reg record at %sns" lineno (render_float ct);
              let [@warning "-8"] [ area; leak; read; write ] =
                parse_kvs ~line:lineno
                  ~keys:
                    [
                      "area_um2_per_bit"; "leak_mw_per_bit"; "read_pj_per_bit";
                      "write_pj_per_bit";
                    ]
                  fields
              in
              regs :=
                ( ct,
                  {
                    r_area_um2_per_bit =
                      parse_float ~line:lineno ~what:"area_um2_per_bit" area;
                    r_leak_mw_per_bit =
                      parse_float ~line:lineno ~what:"leak_mw_per_bit" leak;
                    r_read_pj_per_bit =
                      parse_float ~line:lineno ~what:"read_pj_per_bit" read;
                    r_write_pj_per_bit =
                      parse_float ~line:lineno ~what:"write_pj_per_bit" write;
                  } )
                :: !regs
          | [ "end"; n ] -> (
              match int_of_string_opt n with
              | Some v -> finished := Some (lineno, v)
              | None -> failf "line %d: end: %S is not an integer" lineno n)
          | _ -> failf "line %d: unrecognized record %S" lineno line)
      lines;
    if not !header_seen then failf "empty file: missing salam-hwdb header";
    let name = match !name with Some n -> n | None -> failf "missing name declaration" in
    let node = match !node with Some n -> n | None -> failf "missing node declaration" in
    let cts =
      match !cycle_times with
      | Some c -> c
      | None -> failf "missing cycle_times declaration"
    in
    let records = List.length !fus + List.length !regs in
    (match !finished with
    | None -> failf "truncated database: missing end record"
    | Some (line, n) ->
        if n <> records then
          failf "line %d: end declares %d record(s) but %d parsed (truncated or edited?)"
            line n records);
    (* coverage: every declared cycle time needs a reg record and one
       record per FU class — an interpolation-free lookup has no way to
       fill holes *)
    List.iter
      (fun ct ->
        if not (List.mem_assoc ct !regs) then
          failf "no reg record at %sns" (render_float ct);
        List.iter
          (fun cls ->
            if not (List.mem_assoc (cls, ct) !fus) then
              failf "no record for %s at %sns" (Fu.to_string cls) (render_float ct))
          Fu.all)
      cts;
    Ok
      {
        db_name = name;
        db_node_nm = node;
        db_cycle_times = cts;
        db_fus = List.rev !fus;
        db_regs = List.rev !regs;
      }
  with Bad msg -> Error msg

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> (
      match parse text with
      | Ok db -> Ok db
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

(* --- interpolation-free lookup ------------------------------------------ *)

let db_profile t ~cycle_time_ns =
  if not (List.mem cycle_time_ns t.db_cycle_times) then
    Error
      (Printf.sprintf "database %s has no %sns characterization (available: %s)" t.db_name
         (render_float cycle_time_ns)
         (String.concat ", " (List.map (fun c -> render_float c ^ "ns") t.db_cycle_times)))
  else
    let r = List.assoc cycle_time_ns t.db_regs in
    Ok
      {
        Profile.profile_name =
          Printf.sprintf "%s@%sns" t.db_name (render_float cycle_time_ns);
        node_nm = t.db_node_nm;
        cycle_time_ns;
        specs =
          List.fold_left
            (fun m ((cls, ct), s) -> if ct = cycle_time_ns then Fu.Map.add cls s m else m)
            Fu.Map.empty t.db_fus;
        reg_area_um2_per_bit = r.r_area_um2_per_bit;
        reg_leak_mw_per_bit = r.r_leak_mw_per_bit;
        reg_read_pj_per_bit = r.r_read_pj_per_bit;
        reg_write_pj_per_bit = r.r_write_pj_per_bit;
      }

(* --- the seed 40 nm database -------------------------------------------- *)

(* The 2 ns row (the default 500 MHz clock) IS [Profile.default_40nm],
   copied verbatim — loading the shipped table at the default operating
   point is bit-identical to the compiled-in constants by construction.
   The other cycle times derive deterministically from it: latencies
   scale by the frequency ratio, rounded up to at least one cycle, and
   area/leakage/energy follow the usual synthesis trade —
   faster cells are bigger and leakier, relaxed timing lets the tools
   shrink the netlist. *)
let seed_cycle_times = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 10.0 ]

let derived_fu_spec ~cycle_time_ns (s : Profile.fu_spec) =
  if cycle_time_ns = 2.0 then s
  else
    let speed = 2.0 /. cycle_time_ns in
    let geometry = Float.max 0.72 (1.0 +. (0.35 *. (speed -. 1.0))) in
    let energy = Float.max 0.88 (1.0 +. (0.15 *. (speed -. 1.0))) in
    {
      Profile.latency =
        max 1 (int_of_float (ceil (float_of_int s.Profile.latency *. speed)));
      pipelined = s.Profile.pipelined;
      area_um2 = s.Profile.area_um2 *. geometry;
      leakage_mw = s.Profile.leakage_mw *. geometry;
      dynamic_pj = s.Profile.dynamic_pj *. energy;
    }

let derived_reg_spec ~cycle_time_ns r =
  if cycle_time_ns = 2.0 then r
  else
    let speed = 2.0 /. cycle_time_ns in
    let geometry = Float.max 0.72 (1.0 +. (0.35 *. (speed -. 1.0))) in
    let energy = Float.max 0.88 (1.0 +. (0.15 *. (speed -. 1.0))) in
    {
      r_area_um2_per_bit = r.r_area_um2_per_bit *. geometry;
      r_leak_mw_per_bit = r.r_leak_mw_per_bit *. geometry;
      r_read_pj_per_bit = r.r_read_pj_per_bit *. energy;
      r_write_pj_per_bit = r.r_write_pj_per_bit *. energy;
    }

let builtin =
  let base = Profile.default_40nm in
  let base_reg =
    {
      r_area_um2_per_bit = base.Profile.reg_area_um2_per_bit;
      r_leak_mw_per_bit = base.Profile.reg_leak_mw_per_bit;
      r_read_pj_per_bit = base.Profile.reg_read_pj_per_bit;
      r_write_pj_per_bit = base.Profile.reg_write_pj_per_bit;
    }
  in
  {
    db_name = "salam-40nm";
    db_node_nm = 40;
    db_cycle_times = seed_cycle_times;
    db_fus =
      List.concat_map
        (fun cls ->
          let s = Profile.spec base cls in
          List.map
            (fun ct -> ((cls, ct), derived_fu_spec ~cycle_time_ns:ct s))
            seed_cycle_times)
        Fu.all;
    db_regs =
      List.map (fun ct -> (ct, derived_reg_spec ~cycle_time_ns:ct base_reg)) seed_cycle_times;
  }

let builtin_hash = hash builtin

(* --- registry ------------------------------------------------------------ *)

(* Process-wide table of loaded databases keyed by content hash. A design
   point names its database by hash (the [hw_db] field); elaborating the
   point's config resolves through here, so a point measured under one
   table can never be silently served constants from another. Writes
   happen at CLI/daemon startup; reads are lock-protected too since
   served workers resolve concurrently. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let add_db h db =
  Mutex.lock registry_lock;
  if not (Hashtbl.mem registry h) then Hashtbl.add registry h db;
  Mutex.unlock registry_lock

let register db =
  let h = hash db in
  add_db h db;
  h

(* under the hash computed above: the built-in table is rendered once
   per process, not once more to register it *)
let () = add_db builtin_hash builtin

let find_db h =
  Mutex.lock registry_lock;
  let db = Hashtbl.find_opt registry h in
  Mutex.unlock registry_lock;
  db

let registered () =
  Mutex.lock registry_lock;
  let dbs = Hashtbl.fold (fun h db acc -> (h, db) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort compare dbs

(* Profiles resolved so far, by (database hash, node, cycle time). A
   registered table never changes and its hash names its content, so a
   resolution that succeeded once holds for the life of the process; a
   served daemon resolves every request's point, hit or miss. Failures
   are not kept: the database may be registered later. Guarded by
   [registry_lock]. *)
let resolved : (string * int * float, Profile.t) Hashtbl.t = Hashtbl.create 16

(* Full identity resolution: database by hash, node checked, cycle time
   looked up. This is what [Point.to_config] goes through. *)
let resolve ~hw_db ~node ~cycle_time_ns =
  let key = (hw_db, node, cycle_time_ns) in
  Mutex.lock registry_lock;
  let known = Hashtbl.find_opt resolved key in
  Mutex.unlock registry_lock;
  match known with
  | Some profile -> Ok profile
  | None -> (
      match find_db hw_db with
      | None ->
          Error
            (Printf.sprintf
               "unknown hardware database %s (not loaded in this process; pass --hw-db)" hw_db)
      | Some db when db.db_node_nm <> node ->
          Error
            (Printf.sprintf "database %s is characterized at %d nm, not %d nm" db.db_name
               db.db_node_nm node)
      | Some db -> (
          match db_profile db ~cycle_time_ns with
          | Ok profile ->
              Mutex.lock registry_lock;
              Hashtbl.replace resolved key profile;
              Mutex.unlock registry_lock;
              Ok profile
          | Error _ as e -> e))

(* Convenience lookup by (node, cycle time) across every registered
   database, deterministic by (name, hash) order. *)
let profile ~node ~cycle_time_ns =
  let candidates =
    List.filter (fun (_, db) -> db.db_node_nm = node) (registered ())
    |> List.sort (fun (ha, a) (hb, b) -> compare (a.db_name, ha) (b.db_name, hb))
  in
  match candidates with
  | [] -> Error (Printf.sprintf "no registered hardware database for %d nm" node)
  | dbs -> (
      let rec try_dbs = function
        | [] ->
            Error
              (Printf.sprintf "no registered %d nm database has a %sns characterization"
                 node (render_float cycle_time_ns))
        | (_, db) :: rest -> (
            match db_profile db ~cycle_time_ns with Ok p -> Ok p | Error _ -> try_dbs rest)
      in
      try_dbs dbs)
