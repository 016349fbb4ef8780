(* Tests for the line codecs: the positional decoders against the
   association-list decoders they replaced, JSON's number grammar,
   integers outside OCaml's int range, errors that name the field, and
   bit-exact round trips of measurements, request lines and compact
   points whose cut, bit-flipped or reordered bytes are refused or
   decode to what they say. *)

module Point = Salam_dse.Point

(* The library's codec, plus a member-list decoder on its generic
   reader ([member]) and lookups: the oracles and the generators below
   read lines this way, and the other codec tests use it as their
   reference. *)
module Jsonl = struct
  include Salam_dse.Jsonl

  let value_of kind src off len =
    match kind with
    | Integer -> Int (int64_at src off len)
    | Number -> Float (float_of_string (String.sub src off len))
    | True -> Bool true
    | False -> Bool false
    | String -> Str (String.sub src off len)

  (* every member, in line order, by the cursor's generic reader *)
  let decode line =
    let c = cursor line in
    let fields = ref [] in
    match
      while member c do
        fields := (String.sub c.ksrc c.koff c.klen, value_of c.kind c.src c.off c.len) :: !fields
      done
    with
    | () -> Ok (List.rev !fields)
    | exception Syntax e -> Error e

  (* a float's "%h" text, read by the runtime and checked to render back
     the same: the library's own reader is not used *)
  let hex_text s =
    match float_of_string_opt s with
    | Some f when String.equal (Printf.sprintf "%h" f) s -> Some f
    | Some _ | None -> None

  let get_int fields k = match List.assoc_opt k fields with Some (Int i) -> Some i | _ -> None
  let get_bool fields k = match List.assoc_opt k fields with Some (Bool b) -> Some b | _ -> None
  let get_str fields k = match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
end

module M = Salam_dse.Measurement
module P = Salam_served.Protocol
module Shard = Salam_dse.Store_shard

(* --- the oracle ----------------------------------------------------- *)

(* [Measurement.of_line] as it was before the positional decoder:
   parse the line into an association list, then look every field up by
   key, in canonical order, naming the first that is missing or of the
   wrong kind with the decoder's words. Kept here only to check the
   decoder that replaced it. *)
let oracle_of_line line =
  match Jsonl.decode line with
  | Error e -> Error e
  | Ok fields -> (
      let exception Field of string in
      let get k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Field (Printf.sprintf "missing field %S" k))
      in
      let bad k reason = raise (Field (Printf.sprintf "field %S %s" k reason)) in
      let int k =
        match get k with
        | Jsonl.Int i when Int64.of_int (Int64.to_int i) = i -> Int64.to_int i
        | Jsonl.Int _ -> bad k "is outside the int range"
        | _ -> bad k "must be an integer"
      in
      let int64 k = match get k with Jsonl.Int i -> i | _ -> bad k "must be an integer" in
      (* a float field holds a float's "%h" text, or a number (the
         decimal spelling older stores hold); any other value is refused *)
      let float k =
        match get k with
        | Jsonl.Str s -> (
            match Jsonl.hex_text s with Some f -> f | None -> bad k "must be a number")
        | Jsonl.Float f -> f
        | Jsonl.Int i -> Int64.to_float i
        | _ -> bad k "must be a number"
      in
      let str k = match get k with Jsonl.Str s -> s | _ -> bad k "must be a string" in
      let bool k = match get k with Jsonl.Bool b -> b | _ -> bad k "must be a boolean" in
      try
        let fp =
          match get "fp" with
          | Jsonl.Str s when Point.fingerprint_of_hex s <> None ->
              Option.get (Point.fingerprint_of_hex s)
          | _ -> bad "fp" "must be a 16-digit hex fingerprint"
        in
        let workload = str "workload" in
        let memory =
          match get "memory" with
          | Jsonl.Str s when Point.memory_kind_of_string s <> None ->
              Option.get (Point.memory_kind_of_string s)
          | _ -> bad "memory" "must be \"spm\", \"cache\" or \"dram\""
        in
        let read_ports = int "read_ports" in
        let write_ports = int "write_ports" in
        let banks = int "banks" in
        let cache_bytes = int "cache_bytes" in
        let fu_limit = int "fu_limit" in
        let unroll = int "unroll" in
        let junroll = int "junroll" in
        let clock_mhz = float "clock_mhz" in
        let node_nm = int "node_nm" in
        let cycle_time_ns = float "cycle_time_ns" in
        let hw_db = str "hw_db" in
        let point =
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
          }
        in
        let cycles = int64 "cycles" in
        let seconds = float "seconds" in
        let total_mw = float "total_mw" in
        let datapath_mw = float "datapath_mw" in
        let area_um2 = float "area_um2" in
        let correct = bool "correct" in
        let active_cycles = int "active_cycles" in
        let issue_cycles = int "issue_cycles" in
        let stall_cycles = int "stall_cycles" in
        let stall_load_only = int "stall_load_only" in
        let stall_load_compute = int "stall_load_compute" in
        let stall_load_store_compute = int "stall_load_store_compute" in
        let stall_other = int "stall_other" in
        let cycles_with_load = int "cycles_with_load" in
        let cycles_with_store = int "cycles_with_store" in
        let cycles_with_load_and_store = int "cycles_with_load_and_store" in
        let loads_issued = int "loads_issued" in
        let stores_issued = int "stores_issued" in
        let issued_fp = int "issued_fp" in
        let issued_int = int "issued_int" in
        let issued_mem = int "issued_mem" in
        let fmul_occupancy = float "fmul_occupancy" in
        let fmul_allocated = int "fmul_allocated" in
        let spm_reads = int "spm_reads" in
        let spm_writes = int "spm_writes" in
        let cache_hits = int "cache_hits" in
        let cache_misses = int "cache_misses" in
        Ok
          {
            M.fp;
            workload;
            point;
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
      with Field e -> Error e)

(* What [Protocol.decode_response] answers for a line whose first
   "type" value is "result" or names no reply type, read off the member
   list as above; [None] for the other reply types. *)
let oracle_of_reply line =
  match Jsonl.decode line with
  | Error e -> Some (Error ("bad response line: " ^ e))
  | Ok fields -> (
      match Jsonl.get_int fields "id" with
      | None -> Some (Error "response missing integer field \"id\"")
      | Some id -> (
          match Jsonl.get_str fields "type" with
          | None -> Some (Error "response missing string field \"type\"")
          | Some "result" -> (
              match Jsonl.get_str fields "served" with
              | None -> Some (Error "missing or non-string field \"served\"")
              | Some served -> (
                  match oracle_of_line line with
                  | Ok m -> Some (Ok (id, served, m))
                  | Error e -> Some (Error ("result: " ^ e))))
          | Some ("pong" | "stopping" | "error" | "point" | "done" | "stats") -> None
          | Some ty -> Some (Error (Printf.sprintf "unknown response type %S" ty))))

(* What [Protocol.decode_request] answers, read off the member list:
   the first value of each key, a sim's point and a sweep's points read
   by [Point.of_compact]. *)
let oracle_of_request line =
  let ( let* ) = Result.bind in
  match Jsonl.decode line with
  | Error e -> Error (0L, "bad request line: " ^ e)
  | Ok fields -> (
      match Jsonl.get_int fields "id" with
      | None -> Error (0L, "missing integer field \"id\"")
      | Some id -> (
          let int k ~default =
            match List.assoc_opt k fields with
            | None -> Ok default
            | Some (Jsonl.Int i) when Int64.of_int (Int64.to_int i) = i -> Ok (Int64.to_int i)
            | Some (Jsonl.Int _) -> Error (Printf.sprintf "field %S is outside the int range" k)
            | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)
          in
          let str k =
            match Jsonl.get_str fields k with
            | Some s -> Ok s
            | None -> Error (Printf.sprintf "missing or non-string field %S" k)
          in
          let spec () =
            let* workload = str "workload" in
            let* gemm_n = int "gemm_n" ~default:16 in
            let* invocations = int "invocations" ~default:1 in
            let* fast_forward =
              if List.mem_assoc "fast_forward" fields then
                Result.map Option.some (int "fast_forward" ~default:0)
              else Ok None
            in
            if invocations < 1 then Error "invocations must be at least 1"
            else if gemm_n < 1 then Error "gemm_n must be at least 1"
            else
              match fast_forward with
              | Some k when k < 0 || k >= invocations ->
                  Error
                    (Printf.sprintf "fast_forward must satisfy 0 <= %d < invocations (%d)" k
                       invocations)
              | _ -> Ok { P.workload; gemm_n; invocations; fast_forward }
          in
          let with_op op r =
            match r with Ok req -> Ok (id, req) | Error e -> Error (id, op ^ ": " ^ e)
          in
          match Jsonl.get_str fields "op" with
          | None -> Error (id, "missing string field \"op\"")
          | Some "ping" -> Ok (id, P.Ping)
          | Some "stats" -> Ok (id, P.Stats)
          | Some "shutdown" -> Ok (id, P.Shutdown)
          | Some "sim" ->
              with_op "sim"
                (let* spec = spec () in
                 let* text = str "point" in
                 let* p = Point.of_compact text in
                 Ok (P.Sim (spec, p)))
          | Some "sweep" ->
              with_op "sweep"
                (let* spec = spec () in
                 let* text = str "points" in
                 if text = "" then Error "empty point list"
                 else
                   let* ps =
                     List.fold_left
                       (fun acc t ->
                         let* ps = acc in
                         let* p = Point.of_compact t in
                         Ok (p :: ps))
                       (Ok []) (String.split_on_char ';' text)
                   in
                   Ok (P.Sweep (spec, List.rev ps)))
          | Some op ->
              Error (id, Printf.sprintf "unknown op %S (ping|sim|sweep|stats|shutdown)" op)))

(* --- generators ----------------------------------------------------- *)

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (6, float);
        (1, oneofl [ Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity ]);
        (1, oneofl [ 0.0; -0.0; 1.0; 4.9e-324; Float.max_float ]);
      ])

let gen_int = QCheck.Gen.(frequency [ (3, int); (1, int_range (-5) 5) ])

(* quotes, backslashes and control characters, among any other byte *)
let gen_text =
  QCheck.Gen.(
    string_size ~gen:(frequency [ (4, char); (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031' ]) ])
      (int_range 0 12))

let gen_measurement : M.t QCheck.Gen.t =
 fun st ->
  let int () = gen_int st and float () = gen_float st in
  let point =
    {
      Point.memory = QCheck.Gen.oneofl [ Point.Spm; Point.Cache; Point.Dram ] st;
      read_ports = int ();
      write_ports = int ();
      banks = int ();
      cache_bytes = int ();
      fu_limit = int ();
      unroll = int ();
      junroll = int ();
      clock_mhz = float ();
      node_nm = int ();
      cycle_time_ns = float ();
      hw_db = gen_text st;
    }
  in
  {
    M.fp = QCheck.Gen.ui64 st;
    workload = gen_text st;
    point;
    cycles = Int64.of_int (int ());
    seconds = float ();
    total_mw = float ();
    datapath_mw = float ();
    area_um2 = float ();
    correct = QCheck.Gen.bool st;
    active_cycles = int ();
    issue_cycles = int ();
    stall_cycles = int ();
    stall_load_only = int ();
    stall_load_compute = int ();
    stall_load_store_compute = int ();
    stall_other = int ();
    cycles_with_load = int ();
    cycles_with_store = int ();
    cycles_with_load_and_store = int ();
    loads_issued = int ();
    stores_issued = int ();
    issued_fp = int ();
    issued_int = int ();
    issued_mem = int ();
    fmul_occupancy = float ();
    fmul_allocated = int ();
    spm_reads = int ();
    spm_writes = int ();
    cache_hits = int ();
    cache_misses = int ();
  }

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Jsonl.Int (Int64.of_int i)) gen_int;
        map (fun f -> Jsonl.Float f) gen_float;
        map (fun b -> Jsonl.Bool b) bool;
        map (fun s -> Jsonl.Str s) gen_text;
      ])

(* a key's and a value's text as the encoder writes them, cut out of
   one-member objects {"k":true} and {"":v} *)
let key_text k =
  let s = Jsonl.encode [ (k, Jsonl.Bool true) ] in
  String.sub s 1 (String.length s - 7)

let value_text v =
  let s = Jsonl.encode [ ("", v) ] in
  String.sub s 4 (String.length s - 5)

let members_of line =
  match Jsonl.decode line with
  | Ok fields -> fields
  | Error e -> failwith ("canonical line does not decode: " ^ e)

(* A valid but non-canonical rendering of a measurement line: members
   shuffled, unknown keys and repeated keys (any value, any position)
   inserted, a member sometimes dropped, and spaces around every token.
   [envelope] members, when given, are shuffled in among them. *)
let gen_mutated ?(envelope = []) m : string QCheck.Gen.t =
 fun st ->
  let fields = members_of (M.to_line m) in
  let keys = List.map fst fields in
  let extra =
    List.init (QCheck.Gen.int_range 0 3 st) (fun i ->
        (Printf.sprintf "x_extra%d" i, gen_value st))
  in
  let repeats =
    List.init (QCheck.Gen.int_range 0 3 st) (fun _ -> (QCheck.Gen.oneofl keys st, gen_value st))
  in
  let members = QCheck.Gen.shuffle_l (fields @ extra @ repeats @ envelope) st in
  let members =
    if QCheck.Gen.int_range 0 9 st = 0 then
      let drop = QCheck.Gen.oneofl keys st in
      List.filter (fun (k, _) -> k <> drop) members
    else members
  in
  let ws () = QCheck.Gen.oneofl [ ""; " "; "\t"; "  " ] st in
  let texts =
    List.map
      (fun (k, v) -> ws () ^ key_text k ^ ws () ^ ":" ^ ws () ^ value_text v ^ ws ())
      members
  in
  ws () ^ "{" ^ String.concat "," texts ^ "}" ^ ws ()

let same a b = compare a b = 0

(* [l] with [x] inserted before its [i]-th element, or without it *)
let insert_at l i x = List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)
let remove_at l i = List.filteri (fun j _ -> j <> i) l

(* [s] as a JSON string with its [i]-th byte written as a \u escape *)
let escape_one s i =
  let inner t =
    let q = value_text (Jsonl.Str t) in
    String.sub q 1 (String.length q - 2)
  in
  Printf.sprintf "\"%s\\u%04x%s\"" (inner (String.sub s 0 i)) (Char.code s.[i])
    (inner (String.sub s (i + 1) (String.length s - i - 1)))

(* One change aimed at the decoder's per-member fallback, the rest of a
   canonical [line] left as it is: one member moved out of canonical
   order; spaces around one member's ':' and ','; an escape inside one
   of the string members [escapable] names (in its key when its value
   has no ASCII byte); a second value for a key, before or after its
   canonical place; an unknown extra key; or, for a reply, "served"
   placed before "type". *)
let gen_targeted ?(reply = false) ~escapable line : string QCheck.Gen.t =
 fun st ->
  let fields = members_of line in
  let n = List.length fields in
  let text (k, v) = key_text k ^ ":" ^ value_text v in
  let texts = List.map text fields in
  let index_of k = Option.get (List.find_index (fun (k', _) -> k' = k) fields) in
  let texts =
    match QCheck.Gen.int_bound (if reply then 5 else 4) st with
    | 0 ->
        let a = QCheck.Gen.int_bound (n - 1) st in
        insert_at (remove_at texts a) (QCheck.Gen.int_bound (n - 1) st) (List.nth texts a)
    | 1 ->
        let j = QCheck.Gen.int_bound (n - 1) st in
        let ws () = QCheck.Gen.oneofl [ " "; "\t"; "  " ] st in
        let k, v = List.nth fields j in
        List.mapi
          (fun i t ->
            if i = j then ws () ^ key_text k ^ ws () ^ ":" ^ ws () ^ value_text v ^ ws () else t)
          texts
    | 2 -> (
        match List.filter (fun k -> List.mem_assoc k fields) escapable with
        | [] -> texts
        | ks ->
            let k = QCheck.Gen.oneofl ks st in
            let j = index_of k in
            let ascii s =
              List.filter (fun i -> Char.code s.[i] < 0x80) (List.init (String.length s) Fun.id)
            in
            let t =
              match List.assoc k fields with
              | Jsonl.Str s when ascii s <> [] ->
                  key_text k ^ ":" ^ escape_one s (QCheck.Gen.oneofl (ascii s) st)
              | v ->
                  escape_one k (QCheck.Gen.int_bound (String.length k - 1) st) ^ ":" ^ value_text v
            in
            List.mapi (fun i t' -> if i = j then t else t') texts)
    | 3 ->
        let j = QCheck.Gen.int_bound (n - 1) st in
        let k, v = List.nth fields j in
        let v = if QCheck.Gen.bool st then v else gen_value st in
        let at =
          if QCheck.Gen.bool st then QCheck.Gen.int_bound j st
          else j + 1 + QCheck.Gen.int_bound (n - 1 - j) st
        in
        insert_at texts at (text (k, v))
    | 4 -> insert_at texts (QCheck.Gen.int_bound n st) (text ("x_extra", gen_value st))
    | _ ->
        let served = index_of "served" in
        insert_at (remove_at texts served) (index_of "type") (List.nth texts served)
  in
  "{" ^ String.concat "," texts ^ "}"

let measurement_escapable = [ "workload"; "hw_db" ]


let show_result = function Ok m -> "Ok " ^ M.to_line m | Error e -> "Error " ^ e

let qcheck_canonical_round_trip =
  QCheck.Test.make ~name:"canonical lines decode like the oracle and round-trip byte for byte"
    ~count:300
    (QCheck.make ~print:M.to_line gen_measurement)
    (fun m ->
      let line = M.to_line m in
      match (M.of_line line, oracle_of_line line) with
      | Ok got, Ok want ->
          same got m && same got want && String.equal (M.to_line got) line
      | got, want ->
          QCheck.Test.fail_reportf "decoder %s, oracle %s" (show_result got) (show_result want))

(* a result reply's envelope members, and sometimes a second value (any
   value) for one of its keys *)
let gen_envelope st =
  let base =
    [
      ("id", Jsonl.Int (QCheck.Gen.ui64 st));
      ("type", Jsonl.Str "result");
      ("served", Jsonl.Str (QCheck.Gen.oneofl [ "hit"; "sim"; "dedup" ] st));
    ]
  in
  base
  @ List.init (QCheck.Gen.int_range 0 2 st) (fun _ ->
        (QCheck.Gen.oneofl [ "id"; "type"; "served" ] st, gen_value st))

(* Mutated store lines, and mutated reply lines with the envelope's
   members before, between and after the measurement's, or lines with
   one targeted change: the decoders give the oracle's exact value or
   its exact error text. *)
let qcheck_mutated_lines_agree =
  QCheck.Test.make ~name:"mutated lines decode like the oracle" ~count:500
    (QCheck.make ~print:(fun (l, r) -> l ^ "\n" ^ r)
       QCheck.Gen.(
         gen_measurement >>= fun m ->
         let line = M.to_line m in
         let reply st =
           P.splice ~id:(ui64 st) ~served:(oneofl [ "hit"; "sim"; "dedup" ] st) line
         in
         pair
           (oneof [ gen_mutated m; gen_targeted ~escapable:measurement_escapable line ])
           (oneof
              [
                (gen_envelope >>= fun envelope -> gen_mutated ~envelope m);
                (reply >>= fun r -> gen_targeted ~reply:true ~escapable:measurement_escapable r);
              ])))
    (fun (line, reply) ->
      (match (M.of_line line, oracle_of_line line) with
      | Ok got, Ok want -> same got want
      | Error got, Error want ->
          got = want || QCheck.Test.fail_reportf "decoder %S, oracle %S" got want
      | got, want ->
          QCheck.Test.fail_reportf "decoder %s, oracle %s" (show_result got) (show_result want))
      &&
      match (P.decode_response reply, oracle_of_reply reply) with
      | _, None -> true
      | Ok (id, `Terminal (P.Result { served; m })), Some (Ok (id', served', want)) ->
          (id = id' && served = served' && same m want)
          || QCheck.Test.fail_reportf "reply decoded as %Ld %s %s" id served (M.to_line m)
      | Error got, Some (Error want) ->
          got = want || QCheck.Test.fail_reportf "reply refused with %S, oracle %S" got want
      | Ok _, Some _ -> QCheck.Test.fail_report "reply decoded, but not as the oracle reads it"
      | Error e, Some (Ok _) -> QCheck.Test.fail_reportf "a good reply refused: %s" e)

(* --- hand-written lines --------------------------------------------- *)

let sample = Test_store_shard.synthetic 3

(* The case that once set the property above apart (QCHECK_SEED
   184354554): a float field holding a numeric string that is not a
   float's "%h" text is refused by the decoder and the oracle. *)
let test_string_float_refused_by_both () =
  let line =
    Jsonl.encode
      (List.map
         (fun (k, v) -> if k = "clock_mhz" then (k, Jsonl.Str "91") else (k, v))
         (members_of (M.to_line sample)))
  in
  (match M.of_line line with
  | Ok m -> Alcotest.failf "the decoder read \"91\" as %h" m.M.point.Point.clock_mhz
  | Error _ -> ());
  match oracle_of_line line with
  | Ok _ -> Alcotest.fail "the oracle read \"91\" as a float"
  | Error _ -> ()

(* [line] with member [key]'s value text replaced by [text] (numeric and
   boolean members only: their text holds no ',') *)
let set_member line key text =
  let tag = Printf.sprintf "\"%s\":" key in
  let n = String.length tag in
  let rec find i = if String.sub line i n = tag then i else find (i + 1) in
  let start = find 0 + n in
  let stop =
    let rec go j = if line.[j] = ',' || line.[j] = '}' then j else go (j + 1) in
    go start
  in
  String.sub line 0 start ^ text ^ String.sub line stop (String.length line - stop)

let drop_member line key =
  let fields = List.filter (fun (k, _) -> k <> key) (members_of line) in
  Jsonl.encode fields

let rejects ?(prefix = false) ~what line want =
  match M.of_line line with
  | Ok _ -> Alcotest.failf "%s: accepted %s" what line
  | Error e when prefix -> Alcotest.(check bool) (what ^ ": " ^ e) true (String.starts_with ~prefix:want e)
  | Error e -> Alcotest.(check string) what want e

let test_number_grammar () =
  let bad tok =
    match Jsonl.decode (Printf.sprintf "{\"x\":%s}" tok) with
    | Ok _ -> Alcotest.failf "accepted the number %s" tok
    | Error e ->
        Alcotest.(check string) tok (Printf.sprintf "bad number %S at offset %d" tok (5 + String.length tok)) e
  in
  List.iter bad [ "1_0.5"; "0x1p3"; "nan"; "inf"; "007"; "1."; ".5"; "+1"; "1e"; "-"; "1e+" ];
  let good tok want =
    match Jsonl.decode (Printf.sprintf "{\"x\":%s}" tok) with
    | Ok [ ("x", got) ] -> Alcotest.(check bool) tok true (got = want)
    | Ok _ | Error _ -> Alcotest.failf "rejected the number %s" tok
  in
  good "0" (Jsonl.Int 0L);
  good "-42" (Jsonl.Int (-42L));
  good "1e-3" (Jsonl.Float 1e-3);
  good "-1.5E+2" (Jsonl.Float (-150.));
  good "0.5" (Jsonl.Float 0.5);
  match Jsonl.decode "{\"x\":-0}" with
  | Ok [ ("x", Jsonl.Float f) ] ->
      Alcotest.(check bool) "-0 keeps its sign" true (f = 0.0 && Float.sign_bit f)
  | Ok _ | Error _ -> Alcotest.fail "-0 must decode as a negative-zero float"

let test_number_grammar_in_lines () =
  let line = M.to_line sample in
  let refused tok =
    match M.of_line (set_member line "seconds" tok) with
    | Ok m -> Alcotest.failf "\"seconds\":%s decoded as %h" tok m.M.seconds
    | Error e ->
        Alcotest.(check bool) (tok ^ " named") true
          (Test_store_shard.contains e (Printf.sprintf "bad number %S" tok))
  in
  List.iter refused [ "1_0.5"; "0x1p3"; "nan" ];
  (* the "%h" strings the encoder writes for non-finite floats decode *)
  List.iter
    (fun (text, want) ->
      match M.of_line (set_member line "seconds" text) with
      | Ok m -> Alcotest.(check bool) text true (compare m.M.seconds want = 0)
      | Error e -> Alcotest.failf "%s refused: %s" text e)
    [
      ("\"nan\"", Float.nan);
      ("\"infinity\"", Float.infinity);
      ("\"-infinity\"", Float.neg_infinity);
    ];
  List.iter
    (fun f ->
      let m = { sample with M.seconds = f; total_mw = f } in
      match M.of_line (M.to_line m) with
      | Ok got -> Alcotest.(check string) "non-finite round trip" (M.to_line m) (M.to_line got)
      | Error e -> Alcotest.failf "%h did not round-trip: %s" f e)
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]

let test_out_of_range_integers_refused () =
  let line = M.to_line sample in
  List.iter
    (fun tok ->
      rejects ~what:tok (set_member line "read_ports" tok)
        "field \"read_ports\" is outside the int range")
    [ "9223372036854775807"; "4611686018427387904"; "-4611686018427387905" ];
  (match M.of_line (set_member line "read_ports" (string_of_int max_int)) with
  | Ok m -> Alcotest.(check int) "max_int still fits" max_int m.M.point.Point.read_ports
  | Error e -> Alcotest.failf "max_int refused: %s" e);
  (* cycles is an int64 field: its whole range decodes *)
  (match M.of_line (set_member line "cycles" "9223372036854775807") with
  | Ok m -> Alcotest.(check int64) "int64 field" Int64.max_int m.M.cycles
  | Error e -> Alcotest.failf "int64 cycles refused: %s" e);
  rejects ~prefix:true ~what:"beyond int64" (set_member line "cycles" "9223372036854775808")
    "integer out of range at offset "

let test_located_errors () =
  let line = M.to_line sample in
  rejects ~what:"string where an integer goes" (set_member line "cycles" "\"1973\"")
    "field \"cycles\" must be an integer";
  rejects ~what:"absent" (drop_member line "cycles") "missing field \"cycles\"";
  rejects ~what:"number where a boolean goes" (set_member line "correct" "1")
    "field \"correct\" must be a boolean";
  rejects ~what:"boolean where a float goes" (set_member line "seconds" "true")
    "field \"seconds\" must be a number";
  rejects ~what:"unknown memory kind"
    (Jsonl.encode
       (List.map
          (fun (k, v) -> if k = "memory" then (k, Jsonl.Str "flash") else (k, v))
          (members_of line)))
    "field \"memory\" must be \"spm\", \"cache\" or \"dram\"";
  (* the first field in line order that is wrong is the one named *)
  rejects ~what:"two wrong fields" (drop_member (set_member line "banks" "true") "cycles")
    "field \"banks\" must be an integer"

(* the message reaches the store's "line N is corrupt (...)" *)
let test_store_names_the_field () =
  let check ~what line want =
    Test_store_shard.with_temp_dir (fun dir ->
        let good = M.to_line (Test_store_shard.synthetic 4) in
        let contents = good ^ "\n" ^ line ^ "\n" in
        Test_store_shard.write_store dir contents;
        let path = Test_store_shard.lines_of dir in
        (match Shard.open_ dir with
        | s ->
            Shard.close s;
            Alcotest.failf "%s: store opened" what
        | exception Failure e ->
            Alcotest.(check bool) (what ^ ": " ^ e) true
              (Test_store_shard.contains e (Printf.sprintf "line 2 is corrupt (%s)" want)));
        Alcotest.(check string) (what ^ ": file untouched") contents
          (Test_store_shard.read_file path))
  in
  let line = M.to_line sample in
  check ~what:"missing" (drop_member line "cycles") "missing field \"cycles\"";
  check ~what:"out of range"
    (set_member line "read_ports" "9223372036854775807")
    "field \"read_ports\" is outside the int range"

(* --- bit-exact round trips and mutated bytes ------------------------ *)

(* bit for bit: floats compared by their bits, NaN payloads included *)
let bit_equal a b =
  let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
  String.equal (bytes a) (bytes b)

(* the floats the codec must carry exactly: signed zeros, the two NaNs
   the encoder's "nan"/"-nan" spellings decode to, infinities,
   subnormals, the extremes and any other bit pattern that is not a NaN *)
let gen_extreme_float =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              0.0; -0.0; Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity;
              4.9e-324; -4.9e-324; 2.2250738585072009e-308; Float.min_float; Float.max_float;
              -.Float.max_float; Float.epsilon; 0.1; 1. /. 3.;
            ] );
        ( 3,
          map
            (fun bits ->
              let f = Int64.float_of_bits bits in
              if Float.is_nan f then Float.nan else f)
            ui64 );
        (2, float);
      ])

let gen_extreme_int = QCheck.Gen.(frequency [ (1, oneofl [ 0; -1; max_int; min_int ]); (3, int) ])

let gen_extreme_measurement : M.t QCheck.Gen.t =
 fun st ->
  let m = gen_measurement st in
  let int () = gen_extreme_int st and float () = gen_extreme_float st in
  {
    m with
    M.point =
      { m.M.point with Point.read_ports = int (); clock_mhz = float (); cycle_time_ns = float () };
    cycles =
      QCheck.Gen.(frequency [ (1, oneofl [ Int64.min_int; Int64.max_int; 0L ]); (3, ui64) ]) st;
    seconds = float ();
    total_mw = float ();
    datapath_mw = float ();
    area_um2 = float ();
    active_cycles = int ();
    fmul_occupancy = float ();
    cache_misses = int ();
  }

let qcheck_bit_exact_round_trip =
  QCheck.Test.make ~name:"of_line (to_line m) = Ok m, bit for bit" ~count:500
    (QCheck.make ~print:M.to_line gen_extreme_measurement)
    (fun m ->
      match M.of_line (M.to_line m) with
      | Ok got -> bit_equal got m || QCheck.Test.fail_reportf "decoded %s" (M.to_line got)
      | Error e -> QCheck.Test.fail_reportf "refused its own line: %s" e)

(* [line] cut short at every offset, and [flips] copies with one random
   bit flipped *)
let cuts line = List.init (String.length line) (String.sub line 0)

let flipped st line =
  let b = Bytes.of_string line in
  let i = QCheck.Gen.int_bound (String.length line - 1) st in
  Bytes.set b i (Char.chr (Char.code line.[i] lxor (1 lsl QCheck.Gen.int_bound 7 st)));
  Bytes.to_string b

let gen_flips n line st = List.init n (fun _ -> flipped st line)

let at_offset e = Test_store_shard.contains e " at offset "

(* A measurement decoded from mutated bytes must be what those bytes
   say: its own line decodes back to it, bit for bit, and the reference
   decoder reads the same measurement out of the mutated bytes. When
   the mutated bytes are canonical, its line is those bytes. *)
let what_the_bytes_say line m =
  let again = M.to_line m in
  (match M.of_line again with
  | Ok m' when bit_equal m m' -> ()
  | Ok _ | Error _ -> QCheck.Test.fail_reportf "%s does not re-decode to itself" again);
  match oracle_of_line line with
  (* the reference reads "nan" with another payload *)
  | Ok want when same want m -> true
  | Ok want -> QCheck.Test.fail_reportf "the reference reads %s" (M.to_line want)
  | Error e -> QCheck.Test.fail_reportf "the reference refuses it: %s" e

let gen_line_and_flips =
  QCheck.Gen.(
    gen_extreme_measurement >>= fun m ->
    let line = M.to_line m in
    map (fun f -> (line, f)) (gen_flips 40 line))

let qcheck_mutated_store_lines =
  QCheck.Test.make ~name:"cut or bit-flipped store lines: an error or what the bytes say"
    ~count:60
    (QCheck.make ~print:fst gen_line_and_flips)
    (fun (line, flips) ->
      List.for_all
        (fun l ->
          match M.of_line l with
          | Ok m -> QCheck.Test.fail_reportf "the cut %S decoded as %s" l (M.to_line m)
          | Error e -> at_offset e || QCheck.Test.fail_reportf "the cut %S: %s" l e)
        (cuts line)
      && List.for_all
           (fun l -> match M.of_line l with Ok m -> what_the_bytes_say l m | Error _ -> true)
           flips)

(* a reply spliced around a measurement's line, canonical or with one
   targeted change *)
let gen_reply st =
  let reply = P.splice ~id:7L ~served:"hit" (M.to_line (gen_extreme_measurement st)) in
  if QCheck.Gen.bool st then reply
  else gen_targeted ~reply:true ~escapable:measurement_escapable reply st

let qcheck_mutated_reply_lines =
  QCheck.Test.make ~name:"cut or bit-flipped reply lines: an error or what the bytes say"
    ~count:60
    (QCheck.make ~print:fst
       QCheck.Gen.(gen_reply >>= fun reply -> map (fun f -> (reply, f)) (gen_flips 40 reply)))
    (fun (reply, flips) ->
      List.for_all
        (fun l ->
          match P.decode_response l with
          | Ok _ -> QCheck.Test.fail_reportf "the cut %S decoded" l
          | Error e -> at_offset e || QCheck.Test.fail_reportf "the cut %S: %s" l e)
        (cuts reply)
      && List.for_all
           (fun l ->
             let got = P.decode_response l in
             (match (got, oracle_of_reply l) with
             | _, None -> true
             | Ok (id, `Terminal (P.Result { served; m })), Some (Ok (id', served', m')) ->
                 (id = id' && served = served' && same m m')
                 || QCheck.Test.fail_reportf "%S decoded as %s" l (M.to_line m)
             | Error e, Some (Error e') ->
                 e = e' || QCheck.Test.fail_reportf "%S refused with %S, oracle %S" l e e'
             | _, Some _ -> QCheck.Test.fail_reportf "%S: the decoder and the oracle disagree" l)
             &&
             match got with
             | Ok (id, `Terminal (P.Result { served; m })) ->
                 let fields = members_of l in
                 Jsonl.get_int fields "id" = Some id
                 && Jsonl.get_str fields "served" = Some served
                 && what_the_bytes_say l m
             | Ok _ -> QCheck.Test.fail_reportf "%S decoded as another reply" l
             | Error _ -> true)
           flips)

(* --- request lines and compact points ------------------------------- *)

let gen_point : Point.t QCheck.Gen.t =
 fun st ->
  let int () = gen_extreme_int st and float () = gen_extreme_float st in
  Point.canonical
    {
      Point.memory = QCheck.Gen.oneofl [ Point.Spm; Point.Cache; Point.Dram ] st;
      read_ports = int ();
      write_ports = int ();
      banks = int ();
      cache_bytes = int ();
      fu_limit = int ();
      unroll = int ();
      junroll = int ();
      clock_mhz = float ();
      node_nm = int ();
      cycle_time_ns = float ();
      hw_db = QCheck.Gen.oneofl [ Salam_config.builtin_hash; "5f3c9a7e21d04b68"; "x" ] st;
    }

let gen_request : P.request QCheck.Gen.t =
 fun st ->
  let spec () =
    let invocations = QCheck.Gen.int_range 1 4 st in
    {
      P.workload = QCheck.Gen.oneofl [ "gemm"; "bfs_queue"; "md_knn_64x16" ] st;
      gemm_n = QCheck.Gen.int_range 1 64 st;
      invocations;
      fast_forward =
        (if QCheck.Gen.bool st then None else Some (QCheck.Gen.int_bound (invocations - 1) st));
    }
  in
  match QCheck.Gen.int_bound 4 st with
  | 0 -> P.Ping
  | 1 -> P.Stats
  | 2 -> P.Shutdown
  | 3 -> P.Sim (spec (), gen_point st)
  | _ -> P.Sweep (spec (), QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) gen_point st)

let gen_id = QCheck.Gen.(frequency [ (1, oneofl [ 0L; Int64.min_int; Int64.max_int ]); (3, ui64) ])

let qcheck_request_round_trip =
  QCheck.Test.make ~name:"decode_request (encode_request r) = Ok r, bit for bit" ~count:500
    (QCheck.make
       ~print:(fun (id, r) -> P.encode_request ~id r)
       QCheck.Gen.(pair gen_id gen_request))
    (fun (id, r) ->
      match P.decode_request (P.encode_request ~id r) with
      | Ok got -> bit_equal got (id, r) || QCheck.Test.fail_report "decoded another request"
      | Error (_, e) -> QCheck.Test.fail_reportf "refused its own line: %s" e)

(* the point text a request line carries, as its first "point" or
   "points" member *)
let point_text fields =
  match (Jsonl.get_str fields "point", Jsonl.get_str fields "points") with
  | Some s, _ | None, Some s -> Some s
  | None, None -> None

(* a request line as the client writes it, or with one targeted change *)
let gen_request_line st =
  let line = P.encode_request ~id:(gen_id st) (gen_request st) in
  if QCheck.Gen.bool st then line
  else gen_targeted ~escapable:[ "workload"; "point"; "points"; "op" ] line st

let qcheck_mutated_request_lines =
  QCheck.Test.make ~name:"cut or bit-flipped request lines: an error or what the bytes say"
    ~count:150
    (QCheck.make ~print:fst
       QCheck.Gen.(gen_request_line >>= fun line -> map (fun f -> (line, f)) (gen_flips 30 line)))
    (fun (line, flips) ->
      List.for_all
        (fun l ->
          match P.decode_request l with
          | Ok _ -> QCheck.Test.fail_reportf "the cut %S decoded" l
          | Error (_, e) -> at_offset e || QCheck.Test.fail_reportf "the cut %S: %s" l e)
        (cuts line)
      && List.for_all
           (fun l ->
             let got = P.decode_request l in
             (match (got, oracle_of_request l) with
             | Ok a, Ok b -> same a b || QCheck.Test.fail_reportf "%S: not the oracle's request" l
             | Error a, Error b ->
                 same a b
                 || QCheck.Test.fail_reportf "%S refused with %S, oracle %S" l (snd a) (snd b)
             | _ -> QCheck.Test.fail_reportf "%S: the decoder and the oracle disagree" l)
             &&
             match got with
             | Error _ -> true
             | Ok (id, r) -> (
                 let fields = members_of l in
                 Jsonl.get_int fields "id" = Some id
                 && (match P.decode_request (P.encode_request ~id r) with
                    | Ok again -> bit_equal again (id, r)
                    | Error _ -> false)
                 &&
                 match r with
                 | P.Sim (_, p) -> point_text fields = Some (Point.to_compact p)
                 | P.Sweep (_, ps) ->
                     point_text fields = Some (String.concat ";" (List.map Point.to_compact ps))
                 | P.Ping | P.Stats | P.Shutdown -> true))
           (line :: flips))

(* FNV-1a over [s], byte by byte: the fingerprint's definition *)
let fnv_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let qcheck_request_point_fingerprint =
  QCheck.Test.make
    ~name:"decode_request (encode_request p) keeps the point and its fingerprint" ~count:300
    (QCheck.make ~print:Point.to_compact gen_point)
    (fun p ->
      let invocations = 1 + (p.Point.read_ports land 3 mod 3) in
      let fast_forward = if p.Point.banks land 1 = 0 then None else Some (invocations - 1) in
      let n = 16 in
      let plan =
        { Salam_dse.Explore.target = Salam_dse.Explore.gemm_target ~n (); invocations; fast_forward }
      in
      let spec = { P.default_spec with P.gemm_n = n; invocations; fast_forward } in
      match P.decode_request (P.encode_request ~id:3L (P.Sim (spec, p))) with
      | Ok (3L, P.Sim (spec', p')) ->
          (* the text the fingerprint hashes, built independently *)
          let identity =
            Printf.sprintf "gemm_ncubed_n%d_u%d_j%d" n p.Point.unroll p.Point.junroll
            ^ (if invocations = 1 then "" else Printf.sprintf "#inv%d" invocations)
            ^ match fast_forward with None -> "" | Some k -> Printf.sprintf "#ff%d" k
          in
          let text =
            Printf.sprintf "epoch=%d\000" Salam.model_epoch ^ identity ^ "\000"
            ^ String.concat "" (List.map (fun kv -> kv ^ ";") (String.split_on_char ',' (Point.to_compact p)))
          in
          let fp = Salam_dse.Explore.fingerprint plan p in
          (bit_equal p' p && spec' = spec
          && Salam_dse.Explore.fingerprint plan p' = fp
          && fp = fnv_reference text)
          || QCheck.Test.fail_reportf "decoded %s, fingerprint %Lx" (Point.to_compact p') fp
      | Ok _ -> QCheck.Test.fail_report "decoded another request"
      | Error (_, e) -> QCheck.Test.fail_reportf "refused its own line: %s" e)

(* The store's 16-character fingerprint text is read as
   [Int64.of_string ("0x" ^ s)] reads it: either case, underscores after
   the first digit. *)
let qcheck_fingerprint_hex_language =
  QCheck.Test.make ~name:"fingerprint_of_hex reads what Int64.of_string reads" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         string_size
           ~gen:(frequency [ (8, oneofl (String.to_seq "0123456789abcdefABCDEF" |> List.of_seq)); (1, oneofl [ '_'; 'x'; '-'; '+'; 'g'; ' ' ]) ])
           (frequency [ (8, return 16); (1, int_range 0 20) ])))
    (fun s ->
      let want =
        if String.length s <> 16 then None
        else try Some (Int64.of_string ("0x" ^ s)) with Failure _ -> None
      in
      Point.fingerprint_of_hex s = want
      || QCheck.Test.fail_reportf "read as %s"
           (match Point.fingerprint_of_hex s with Some h -> Printf.sprintf "%Lx" h | None -> "nothing"))

let qcheck_compact_round_trip =
  QCheck.Test.make ~name:"of_compact (to_compact p) = Ok p, bit for bit" ~count:500
    (QCheck.make ~print:Point.to_compact gen_point)
    (fun p ->
      match Point.of_compact (Point.to_compact p) with
      | Ok got -> bit_equal got p || QCheck.Test.fail_reportf "decoded %s" (Point.to_compact got)
      | Error e -> QCheck.Test.fail_reportf "refused its own text: %s" e)

(* Every accepted compact text is the one [to_compact] writes for the
   point it names, so a cut or flipped text is refused or names exactly
   the point its bytes spell. *)
let qcheck_mutated_compact_points =
  QCheck.Test.make ~name:"cut or bit-flipped compact points: an error or the point the bytes spell"
    ~count:200
    (QCheck.make ~print:fst
       QCheck.Gen.(
         gen_point >>= fun p ->
         let s = Point.to_compact p in
         map (fun f -> (s, f)) (gen_flips 30 s)))
    (fun (s, flips) ->
      List.for_all
        (fun t ->
          match Point.of_compact t with
          | Ok p ->
              String.equal (Point.to_compact p) t
              || QCheck.Test.fail_reportf "%S decoded as %s" t (Point.to_compact p)
          | Error _ -> true)
        (cuts s @ flips))

(* --- the one float spelling ------------------------------------------- *)

(* any bit pattern: subnormals, both zeros, the infinities and NaNs of
   either sign and any payload *)
let gen_any_float =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [
              0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; Float.neg Float.nan;
              4.9e-324; -4.9e-324; Float.min_float; Float.max_float;
            ] );
        (6, map Int64.float_of_bits ui64);
        (* subnormals *)
        (2, map (fun m -> Int64.float_of_bits (Int64.logand m 0x800f_ffff_ffff_ffffL)) ui64);
      ])

(* the writer's bytes are Printf's "%h" in a JSON string, and the
   reader gives back the float (a NaN as a NaN of its sign) *)
let qcheck_float_spelling =
  QCheck.Test.make ~name:"a float member is its %h text in a JSON string" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_any_float)
    (fun f ->
      let text = Printf.sprintf "%h" f in
      let line = Jsonl.encode [ ("x", Jsonl.Float f) ] in
      let back = Jsonl.hex_float_at text 0 (String.length text) in
      (String.equal line (Printf.sprintf "{\"x\":\"%s\"}" text)
      || QCheck.Test.fail_reportf "written as %s" line)
      && (if Float.is_nan f then Float.is_nan back && Float.sign_bit back = Float.sign_bit f
          else Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float f))
      || QCheck.Test.fail_reportf "read back as %h" back)

(* a float field holding hex text that is not the one spelling is
   refused, by the decoder and the oracle alike *)
let test_non_canonical_hex_refused () =
  let line = M.to_line sample in
  List.iter
    (fun text ->
      let line = set_member line "seconds" (Printf.sprintf "\"%s\"" text) in
      rejects ~what:text line "field \"seconds\" must be a number";
      match oracle_of_line line with
      | Ok _ -> Alcotest.failf "the oracle read %S" text
      | Error e ->
          Alcotest.(check string) ("oracle: " ^ text) "field \"seconds\" must be a number" e)
    [
      (* a trailing zero digit *)
      "0x1.80p+1";
      "0x1.0p+0";
      (* uppercase *)
      "0X1.8p+1";
      "0x1.8P+1";
      "0x1.Ap+1";
      "NAN";
      (* no exponent sign, or none at all *)
      "0x1p3";
      "0x1.8";
      (* 14 digits *)
      "0x1.00000000000001p+0";
      (* exponents out of range, or spelled twice *)
      "0x1p+1024";
      "0x1p-1023";
      "0x0.8p+0";
      "0x0p-1022";
      "0x1p+01";
      "0x1p-0";
      "0x1p+123456";
      (* a sign, a space or a number that is not hex *)
      "+0x1p+0";
      " 0x1p+0";
      "0x1p+0 ";
      "1.5";
      "";
      "-";
    ]

(* --- lines read where they lie ------------------------------------- *)

(* a line decoded in place, between other bytes, answers as the line
   alone does *)
let qcheck_sub_decoders =
  QCheck.Test.make ~name:"decode_*_sub in a larger buffer = decode of the line alone" ~count:300
    (QCheck.make ~print:(fun (a, b, _) -> a ^ b)
       QCheck.Gen.(
         triple
           (oneof [ gen_reply; gen_request_line ])
           (string_size ~gen:printable (int_bound 16))
           (string_size ~gen:printable (int_bound 16))))
    (fun (line, before, after) ->
      let buf = before ^ line ^ after and off = String.length before and len = String.length line in
      bit_equal (P.decode_response_sub buf off len) (P.decode_response line)
      && bit_equal (P.decode_request_sub buf off len) (P.decode_request line))

let qcheck_rand seed t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_canonical_round_trip;
    QCheck_alcotest.to_alcotest qcheck_mutated_lines_agree;
    Alcotest.test_case "a numeric string in a float field refused by both" `Quick
      test_string_float_refused_by_both;
    Alcotest.test_case "number tokens follow the JSON grammar" `Quick test_number_grammar;
    Alcotest.test_case "OCaml-only numbers refused in a store line" `Quick
      test_number_grammar_in_lines;
    Alcotest.test_case "integers outside the int range refused" `Quick
      test_out_of_range_integers_refused;
    Alcotest.test_case "decode errors name the field" `Quick test_located_errors;
    Alcotest.test_case "store open names the field" `Quick test_store_names_the_field;
    QCheck_alcotest.to_alcotest qcheck_bit_exact_round_trip;
    QCheck_alcotest.to_alcotest qcheck_mutated_store_lines;
    QCheck_alcotest.to_alcotest qcheck_mutated_reply_lines;
    QCheck_alcotest.to_alcotest qcheck_request_round_trip;
    QCheck_alcotest.to_alcotest qcheck_mutated_request_lines;
    QCheck_alcotest.to_alcotest qcheck_request_point_fingerprint;
    QCheck_alcotest.to_alcotest qcheck_fingerprint_hex_language;
    QCheck_alcotest.to_alcotest qcheck_compact_round_trip;
    QCheck_alcotest.to_alcotest qcheck_mutated_compact_points;
    qcheck_rand 17 qcheck_float_spelling;
    Alcotest.test_case "non-canonical hex floats refused" `Quick test_non_canonical_hex_refused;
    qcheck_rand 19 qcheck_sub_decoders;
  ]
