(* Tests for the line codecs. Each reader accepts exactly what its one
   writer writes: a line (or compact point) that decodes is the
   writer's image of what it decodes to, whatever was done to it (cut
   short, a bit flipped, or one targeted change: a space, members
   swapped, a member repeated or unknown, a decimal float, an upper-case
   or underscored fingerprint, an escape the writer does not write), and
   every refusal names a field or an offset. Also: integers outside
   OCaml's int range, errors that name the field, and bit-exact round
   trips of measurements, request lines and compact points. *)

module Point = Salam_dse.Point

(* The library's codec, plus a reader of lines whose keys are known, in
   order, by the cursor's positional reads: the generators below and
   the other codec tests read lines this way. *)
module Jsonl = struct
  include Salam_dse.Jsonl

  let value_of (c : cursor) =
    match c.kind with
    | Integer -> Int (int64_at c.src c.off c.len)
    | True -> Bool true
    | False -> Bool false
    | String -> Str (String.sub c.src c.off c.len)

  (* the members [keys] name, in that order, and nothing else *)
  let decode_keys keys line =
    let c = cursor line in
    match
      let fields =
        List.map
          (fun k ->
            if not (head c (Printf.sprintf "\"%s\":" k)) then
              raise (Syntax (Printf.sprintf "missing %S at offset %d" k (offset c)));
            value c;
            (k, value_of c))
          keys
      in
      close c;
      fields
    with
    | fields -> Ok fields
    | exception Syntax e -> Error e

  (* a float's "%h" text, read by the runtime and checked to render back
     the same: the library's own reader is not used *)
  let hex_text s =
    match float_of_string_opt s with
    | Some f when String.equal (Printf.sprintf "%h" f) s -> Some f
    | Some _ | None -> None
end

module M = Salam_dse.Measurement
module P = Salam_served.Protocol
module Shard = Salam_dse.Store_shard

let contains = Test_store_shard.contains

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

(* a key's text as the encoder writes it, cut out of the one-member
   object {"k":true} *)
let key_text k =
  let s = Jsonl.encode [ (k, Jsonl.Bool true) ] in
  String.sub s 1 (String.length s - 7)

(* The members of a line its writer wrote ('{', members joined by ',',
   '}'), each as its text: a string's commas and escaped quotes stay
   inside its member. *)
let split_members line =
  let body = String.sub line 1 (String.length line - 2) in
  let parts = ref [] and start = ref 0 and in_string = ref false and i = ref 0 in
  while !i < String.length body do
    (match body.[!i] with
    | '\\' when !in_string -> incr i
    | '"' -> in_string := not !in_string
    | ',' when not !in_string ->
        parts := String.sub body !start (!i - !start) :: !parts;
        start := !i + 1
    | _ -> ());
    incr i
  done;
  List.rev (String.sub body !start (String.length body - !start) :: !parts)

let join members = "{" ^ String.concat "," members ^ "}"

(* a member's key and value texts: keys hold no ':' *)
let key_of m = String.sub m 0 (String.index m ':')
let value_of m = String.sub m (String.index m ':' + 1) (String.length m - String.index m ':' - 1)

let drop_member line key =
  join (List.filter (fun m -> key_of m <> key_text key) (split_members line))

let set_member = Test_store_shard.set_member

(* [l] with [x] inserted before its [i]-th element *)
let insert_at l i x = List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* [l] with its [i]-th and [j]-th elements swapped *)
let swap l i j =
  let a = List.nth l i and b = List.nth l j in
  List.mapi (fun k x -> if k = i then b else if k = j then a else x) l

(* two positions of a list of [n > 1]: adjacent half the time *)
let gen_pair n st =
  let i = QCheck.Gen.int_bound (n - 2) st in
  if QCheck.Gen.bool st then (i, i + 1) else (i, i + 1 + QCheck.Gen.int_bound (n - 2 - i) st)

(* a finite "%h" float, spelled as the decimal "%.17g" writes *)
let decimal_of_hex text =
  match Jsonl.hex_float_at text 0 (String.length text) with
  | f when Float.is_finite f -> Some (Printf.sprintf "%.17g" f)
  | _ -> None
  | exception Jsonl.Not_a_float -> None

(* A fingerprint's text in a spelling [fingerprint_hex] does not write:
   upper case, or one digit after the first as '_' *)
let gen_foreign_fp text st =
  if QCheck.Gen.bool st && String.exists (fun c -> c >= 'a' && c <= 'f') text then
    String.uppercase_ascii text
  else
    let i = 1 + QCheck.Gen.int_bound (String.length text - 2) st in
    String.mapi (fun j c -> if j = i then '_' else c) text

let unquote v = String.sub v 1 (String.length v - 2)

(* a string value's text (quotes included) with an escape the writer
   does not write: its first byte, when plain, as "\u00XX"; a control
   character's escape in upper case; or a "\/" *)
let gen_foreign_escape v st =
  let inner = unquote v in
  let n = String.length inner in
  let upper =
    List.find_opt
      (fun i -> String.sub inner i 5 = "\\u001" && inner.[i + 5] >= 'a' && inner.[i + 5] <= 'f')
      (List.init (max 0 (n - 5)) Fun.id)
  in
  let quoted t = "\"" ^ t ^ "\"" in
  match (QCheck.Gen.bool st, upper) with
  | true, _ when n > 0 && inner.[0] >= ' ' && inner.[0] <> '"' && inner.[0] <> '\\' ->
      quoted (Printf.sprintf "\\u%04x" (Char.code inner.[0]) ^ String.sub inner 1 (n - 1))
  | false, Some i -> quoted (String.mapi (fun j c -> if j = i + 5 then Char.uppercase_ascii c else c) inner)
  | _ -> quoted ("\\/" ^ inner)

(* One change to a line its writer wrote, the rest left as it is: a
   space where the writer writes none, two members swapped, a member
   repeated, an unknown member, a float as a decimal, the fingerprint
   in upper case or with an underscore, or a string with an escape the
   writer does not write. A change with nothing to act on in this line
   swaps two members instead. *)
let gen_targeted line : string QCheck.Gen.t =
 fun st ->
  let ms = split_members line in
  let n = List.length ms in
  let replace i m = join (List.mapi (fun j m' -> if j = i then m else m') ms) in
  let swapped () =
    let i, j = gen_pair n st in
    join (swap ms i j)
  in
  (* one member that [p] holds for, changed by [f] *)
  let at_one p f =
    match List.filter (fun i -> p (List.nth ms i)) (List.init n Fun.id) with
    | [] -> swapped ()
    | is ->
        let i = QCheck.Gen.oneofl is st in
        replace i (f (List.nth ms i))
  in
  let string_value m = (value_of m).[0] = '"' in
  match QCheck.Gen.int_bound 6 st with
  | 0 ->
      let i = QCheck.Gen.int_bound (n - 1) st in
      let m = List.nth ms i in
      replace i
        (QCheck.Gen.oneofl
           [ " " ^ m; m ^ " "; key_of m ^ " :" ^ value_of m; key_of m ^ ": " ^ value_of m ]
           st)
  | 1 -> swapped ()
  | 2 -> join (insert_at ms (QCheck.Gen.int_bound n st) (List.nth ms (QCheck.Gen.int_bound (n - 1) st)))
  | 3 ->
      let v = QCheck.Gen.oneofl [ "1"; "true"; "\"x\""; "\"0x1p+0\"" ] st in
      join (insert_at ms (QCheck.Gen.int_bound n st) ("\"x_extra\":" ^ v))
  | 4 ->
      at_one
        (fun m -> string_value m && decimal_of_hex (unquote (value_of m)) <> None)
        (fun m -> key_of m ^ ":" ^ Option.get (decimal_of_hex (unquote (value_of m))))
  | 5 ->
      at_one
        (fun m -> key_of m = "\"fp\"")
        (fun m -> key_of m ^ ":\"" ^ gen_foreign_fp (unquote (value_of m)) st ^ "\"")
  | _ -> at_one string_value (fun m -> key_of m ^ ":" ^ gen_foreign_escape (value_of m) st)

(* [line] with each pair of adjacent members swapped in turn *)
let adjacent_swaps line =
  let ms = split_members line in
  List.init (List.length ms - 1) (fun i -> join (swap ms i (i + 1)))

let adjacent_pair_swaps s =
  let pairs = String.split_on_char ',' s in
  List.init (List.length pairs - 1) (fun i -> String.concat "," (swap pairs i (i + 1)))

(* One change to a compact point: two pairs swapped, a pair repeated, an
   unknown pair, a space, a float as a decimal or in upper case. *)
let gen_targeted_compact s : string QCheck.Gen.t =
 fun st ->
  let pairs = String.split_on_char ',' s in
  let n = List.length pairs in
  let rejoin ps = String.concat "," ps in
  let value kv = String.sub kv (String.index kv '=' + 1) (String.length kv - String.index kv '=' - 1) in
  let key kv = String.sub kv 0 (String.index kv '=') in
  let floats = List.filter (fun i -> decimal_of_hex (value (List.nth pairs i)) <> None) (List.init n Fun.id) in
  match QCheck.Gen.int_bound 4 st with
  | 0 ->
      let i, j = gen_pair n st in
      rejoin (swap pairs i j)
  | 1 -> rejoin (insert_at pairs (QCheck.Gen.int_bound n st) (List.nth pairs (QCheck.Gen.int_bound (n - 1) st)))
  | 2 -> rejoin (insert_at pairs (QCheck.Gen.int_bound n st) "x_extra=1")
  | 3 ->
      let i = QCheck.Gen.int_bound (n - 1) st in
      let kv = List.nth pairs i in
      let spaced =
        QCheck.Gen.oneofl [ " " ^ kv; kv ^ " "; key kv ^ " =" ^ value kv; key kv ^ "= " ^ value kv ] st
      in
      rejoin (List.mapi (fun j p -> if j = i then spaced else p) pairs)
  | _ when floats = [] -> rejoin (swap pairs 0 1)
  | _ ->
      let i = QCheck.Gen.oneofl floats st in
      let kv = List.nth pairs i in
      let v =
        if QCheck.Gen.bool st then Option.get (decimal_of_hex (value kv))
        else String.uppercase_ascii (value kv)
      in
      rejoin (List.mapi (fun j p -> if j = i then key kv ^ "=" ^ v else p) pairs)

(* --- the writer-image properties ------------------------------------ *)

(* a refusal names a field or an offset *)
let names e = contains e "field" || contains e " at offset "

let refusal_named what l e =
  names e || QCheck.Test.fail_reportf "%s %S refused without a field or an offset: %s" what l e

(* [of_line l = Ok m] implies [to_line m = l] *)
let store_image l =
  match M.of_line l with
  | Ok m -> String.equal (M.to_line m) l || QCheck.Test.fail_reportf "%S decoded as %s" l (M.to_line m)
  | Error e -> refusal_named "store line" l e

(* [decode_response l = Ok (id, r)] implies [encode_response ~id r = l]:
   [splice] of its measurement's line for a result or a point *)
let reply_image l =
  match P.decode_response l with
  | Ok (id, (`Terminal r | `Interim r)) ->
      String.equal (P.encode_response ~id r) l
      || QCheck.Test.fail_reportf "%S decoded as %s" l (P.encode_response ~id r)
  | Error e -> refusal_named "reply" l e

(* [decode_request l = Ok (id, r)] implies [encode_request ~id r = l] *)
let request_image l =
  match P.decode_request l with
  | Ok (id, r) ->
      String.equal (P.encode_request ~id r) l
      || QCheck.Test.fail_reportf "%S decoded as %s" l (P.encode_request ~id r)
  | Error (_, e) -> refusal_named "request" l e

(* [of_compact s = Ok p] implies [to_compact p = s] *)
let compact_image s =
  match Point.of_compact s with
  | Ok p ->
      String.equal (Point.to_compact p) s
      || QCheck.Test.fail_reportf "%S decoded as %s" s (Point.to_compact p)
  | Error e -> refusal_named "compact point" s e

(* a cut line is refused, at an offset *)
let cut_refused what decode l =
  match decode l with
  | Ok () -> QCheck.Test.fail_reportf "the cut %s %S decoded" what l
  | Error e -> contains e " at offset " || QCheck.Test.fail_reportf "the cut %S: %s" l e


(* --- hand-written lines --------------------------------------------- *)

let sample = Test_store_shard.synthetic 3

(* A float field holding a numeric string that is not a float's "%h"
   text is refused by both readers of measurement fields: a store line's
   and a reply's. *)
let test_string_float_refused_by_both () =
  let line = set_member (M.to_line sample) "clock_mhz" "\"91\"" in
  let want = "field \"clock_mhz\" must be a number" in
  (match M.of_line line with
  | Ok m -> Alcotest.failf "the store reader read \"91\" as %h" m.M.point.Point.clock_mhz
  | Error e -> Alcotest.(check string) "store line" want e);
  match P.decode_response (P.splice ~id:3L ~served:"hit" line) with
  | Ok _ -> Alcotest.fail "the reply reader read \"91\" as a float"
  | Error e -> Alcotest.(check string) "reply" ("result: " ^ want) e

let rejects ?(prefix = false) ~what line want =
  match M.of_line line with
  | Ok _ -> Alcotest.failf "%s: accepted %s" what line
  | Error e when prefix -> Alcotest.(check bool) (what ^ ": " ^ e) true (String.starts_with ~prefix:want e)
  | Error e -> Alcotest.(check string) what want e

(* A number token is a JSON integer as the writer spells it; anything
   else, JSON's fractions, exponents and "-0" included (the writer
   writes none), is refused at the offset after it. *)
let test_number_grammar () =
  let bad tok =
    match Jsonl.decode_keys [ "x" ] (Printf.sprintf "{\"x\":%s}" tok) with
    | Ok _ -> Alcotest.failf "accepted the number %s" tok
    | Error e ->
        Alcotest.(check string) tok (Printf.sprintf "bad value %S at offset %d" tok (5 + String.length tok)) e
  in
  List.iter bad
    [
      "1_0.5"; "0x1p3"; "nan"; "inf"; "007"; "1."; ".5"; "+1"; "1e"; "-"; "1e+"; "1e-3"; "-1.5E+2";
      "0.5"; "-0"; "-01"; "null";
    ];
  let good tok want =
    match Jsonl.decode_keys [ "x" ] (Printf.sprintf "{\"x\":%s}" tok) with
    | Ok [ ("x", got) ] -> Alcotest.(check bool) tok true (got = want)
    | Ok _ | Error _ -> Alcotest.failf "rejected the number %s" tok
  in
  good "0" (Jsonl.Int 0L);
  good "-42" (Jsonl.Int (-42L));
  good "-9223372036854775808" (Jsonl.Int Int64.min_int)

let test_number_grammar_in_lines () =
  let line = M.to_line sample in
  let refused tok =
    match M.of_line (set_member line "seconds" tok) with
    | Ok m -> Alcotest.failf "\"seconds\":%s decoded as %h" tok m.M.seconds
    | Error e ->
        Alcotest.(check bool) (tok ^ " named") true (contains e (Printf.sprintf "bad value %S" tok))
  in
  List.iter refused [ "1_0.5"; "0x1p3"; "nan"; "0.5" ];
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

(* where the member [key] starts in [line]: its ',' *)
let offset_of line key =
  let tag = Printf.sprintf ",\"%s\":" key in
  let n = String.length tag in
  let rec find i = if String.sub line i n = tag then i else find (i + 1) in
  find 0

let test_located_errors () =
  let line = M.to_line sample in
  rejects ~what:"string where an integer goes" (set_member line "cycles" "\"1973\"")
    "field \"cycles\" must be an integer";
  (* an absent field is named where it should have been: at the member
     that came instead *)
  let dropped = drop_member line "cycles" in
  rejects ~what:"absent" dropped
    (Printf.sprintf "missing field \"cycles\" at offset %d" (offset_of dropped "seconds"));
  rejects ~what:"number where a boolean goes" (set_member line "correct" "1")
    "field \"correct\" must be a boolean";
  rejects ~what:"boolean where a float goes" (set_member line "seconds" "true")
    "field \"seconds\" must be a number";
  rejects ~what:"unknown memory kind" (set_member line "memory" "\"flash\"")
    "field \"memory\" must be \"spm\", \"cache\" or \"dram\"";
  (* the first field in line order that is wrong is the one named *)
  rejects ~what:"two wrong fields" (drop_member (set_member line "banks" "true") "cycles")
    "field \"banks\" must be an integer";
  (* a member out of order is named as the field expected there *)
  let swapped = Test_store_shard.swap_members line "cycles" "seconds" in
  rejects ~what:"swapped" swapped
    (Printf.sprintf "missing field \"cycles\" at offset %d" (offset_of swapped "seconds"))

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
              (contains e (Printf.sprintf "line 2 is corrupt (%s" want)));
        Alcotest.(check string) (what ^ ": file untouched") contents
          (Test_store_shard.read_file path))
  in
  let line = M.to_line sample in
  check ~what:"missing" (drop_member line "cycles") "missing field \"cycles\" at offset ";
  check ~what:"out of range"
    (set_member line "read_ports" "9223372036854775807")
    "field \"read_ports\" is outside the int range)"

(* --- bit-exact round trips and what each reader accepts ------------- *)

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


let gen_line_and_changes =
  QCheck.Gen.(
    gen_extreme_measurement >>= fun m ->
    let line = M.to_line m in
    map2 (fun f t -> (line, f @ t)) (gen_flips 40 line) (list_repeat 20 (gen_targeted line)))

(* The store line reader: every cut refused at an offset, and every
   flipped or changed line (each pair of adjacent members swapped among
   them) refused naming a field or an offset, or decoded to the
   measurement whose line it is. The reply, request and compact point
   readers below are held to the same. *)
let qcheck_mutated_store_lines =
  QCheck.Test.make ~name:"cut or bit-flipped store lines: an error or what the bytes say"
    ~count:60
    (QCheck.make ~print:fst gen_line_and_changes)
    (fun (line, changed) ->
      List.for_all (cut_refused "store line" (fun l -> Result.map ignore (M.of_line l))) (cuts line)
      && List.for_all store_image ((line :: changed) @ adjacent_swaps line))

(* every reply the daemon writes, measurement replies spliced around a
   measurement's line *)
let gen_response : P.response QCheck.Gen.t =
 fun st ->
  let m () = gen_extreme_measurement st in
  let served () = QCheck.Gen.oneofl [ "hit"; "sim"; "dedup" ] st in
  let n () = QCheck.Gen.int_bound 1000 st in
  match QCheck.Gen.int_bound 7 st with
  | 0 -> P.Pong
  | 1 -> P.Stopping
  | 2 -> P.Failed (gen_text st)
  | 3 -> P.Sweep_done { points = n (); hits = n (); sims = n (); deduped = n () }
  | 4 ->
      P.Stats_reply
        {
          P.st_hits = n ();
          st_misses = n ();
          st_deduped = n ();
          st_simulated = n ();
          st_inflight = n ();
          st_queue_depth = n ();
          st_store_size = n ();
          st_requests = n ();
        }
  | 5 -> P.Sweep_point { index = n (); served = served (); m = m () }
  | _ -> P.Result { served = served (); m = m () }

(* a reply as the daemon writes it, or with one targeted change *)
let gen_reply st =
  let reply = P.encode_response ~id:(QCheck.Gen.ui64 st) (gen_response st) in
  if QCheck.Gen.bool st then reply else gen_targeted reply st

let qcheck_mutated_reply_lines =
  QCheck.Test.make ~name:"cut or bit-flipped reply lines: an error or what the bytes say"
    ~count:60
    (QCheck.make ~print:fst
       QCheck.Gen.(
         map (P.encode_response ~id:7L) gen_response >>= fun reply ->
         map2 (fun f t -> (reply, f @ t)) (gen_flips 40 reply) (list_repeat 20 (gen_targeted reply))))
    (fun (reply, changed) ->
      List.for_all
        (cut_refused "reply" (fun l -> Result.map ignore (P.decode_response l)))
        (cuts reply)
      && List.for_all reply_image ((reply :: changed) @ adjacent_swaps reply))

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


(* a request line as the client writes it, or with one targeted change:
   to its members, or to the compact point it carries *)
let gen_request_line st =
  let line = P.encode_request ~id:(gen_id st) (gen_request st) in
  match QCheck.Gen.int_bound 3 st with
  | 0 | 1 -> line
  | 2 -> gen_targeted line st
  | _ -> (
      let ms = split_members line in
      match List.find_index (fun m -> key_of m = "\"point\"" || key_of m = "\"points\"") ms with
      | None -> gen_targeted line st
      | Some i ->
          let m = List.nth ms i in
          let text = unquote (value_of m) in
          (* a text with escapes is not a compact point as it stands *)
          if String.contains text '\\' then gen_targeted line st
          else
            let first = List.hd (String.split_on_char ';' text) in
            let changed = gen_targeted_compact first st in
            let rest = String.sub text (String.length first) (String.length text - String.length first) in
            join (List.mapi (fun j m' -> if j = i then key_of m ^ ":\"" ^ changed ^ rest ^ "\"" else m') ms))

let qcheck_mutated_request_lines =
  QCheck.Test.make ~name:"cut or bit-flipped request lines: an error or what the bytes say"
    ~count:150
    (QCheck.make ~print:fst
       QCheck.Gen.(
         map2 (fun id r -> P.encode_request ~id r) gen_id gen_request >>= fun line ->
         map2
           (fun f t -> (line, f @ t))
           (gen_flips 30 line)
           (list_repeat 10 gen_request_line)))
    (fun (line, changed) ->
      List.for_all
        (cut_refused "request" (fun l -> Result.map ignore (Result.map_error snd (P.decode_request l))))
        (cuts line)
      && List.for_all request_image ((line :: changed) @ adjacent_swaps line))

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


(* The store's fingerprint text is exactly the 16 lowercase hex digits
   [fingerprint_hex] writes: upper case, underscores (which
   [Int64.of_string] takes), signs and other lengths are refused. *)
let qcheck_fingerprint_hex_language =
  QCheck.Test.make ~name:"fingerprint_of_hex reads exactly what fingerprint_hex writes"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         string_size
           ~gen:(frequency [ (8, oneofl (String.to_seq "0123456789abcdefABCDEF" |> List.of_seq)); (1, oneofl [ '_'; 'x'; '-'; '+'; 'g'; ' ' ]) ])
           (frequency [ (8, return 16); (1, int_range 0 20) ])))
    (fun s ->
      match Point.fingerprint_of_hex s with
      | Some h -> String.equal (Point.fingerprint_hex h) s || QCheck.Test.fail_reportf "read as %Lx" h
      | None ->
          String.length s <> 16
          || String.exists (fun c -> not (String.contains "0123456789abcdef" c)) s
          || QCheck.Test.fail_report "refused")

let qcheck_compact_round_trip =
  QCheck.Test.make ~name:"of_compact (to_compact p) = Ok p, bit for bit" ~count:500
    (QCheck.make ~print:Point.to_compact gen_point)
    (fun p ->
      match Point.of_compact (Point.to_compact p) with
      | Ok got -> bit_equal got p || QCheck.Test.fail_reportf "decoded %s" (Point.to_compact got)
      | Error e -> QCheck.Test.fail_reportf "refused its own text: %s" e)


(* Every accepted compact text is the one [to_compact] writes for the
   point it names, so a cut, flipped or changed text is refused or names
   exactly the point its bytes spell. *)
let qcheck_mutated_compact_points =
  QCheck.Test.make ~name:"cut or bit-flipped compact points: an error or the point the bytes spell"
    ~count:200
    (QCheck.make ~print:fst
       QCheck.Gen.(
         gen_point >>= fun p ->
         let s = Point.to_compact p in
         map2 (fun f t -> (s, f @ t)) (gen_flips 30 s) (list_repeat 20 (gen_targeted_compact s))))
    (fun (s, changed) ->
      List.for_all compact_image (cuts s @ (s :: changed) @ adjacent_pair_swaps s))

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
   refused *)
let test_non_canonical_hex_refused () =
  let line = M.to_line sample in
  List.iter
    (fun text ->
      rejects ~what:text
        (set_member line "seconds" (Printf.sprintf "\"%s\"" text))
        "field \"seconds\" must be a number")
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
