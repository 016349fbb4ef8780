(* Tests for the result store: its one layout and the refusal of the
   older ones, truncated-tail repair and the refusal of any other damage,
   of any spelling but the writer's and of a line whose fingerprint is
   not its own, manifest discipline, and concurrent writers on the one
   lock. *)

module Point = Salam_dse.Point
module M = Salam_dse.Measurement
module Shard = Salam_dse.Store_shard

(* a measurement whose fingerprint is its own: that of its workload and
   point, as a store requires *)
let synthetic ?(workload = "shardtest") tag =
  let workload = Printf.sprintf "%s%d" workload tag in
  let point =
    Point.canonical
      {
        Point.default with
        Point.read_ports = 1 + (tag mod 13);
        banks = 1 + (tag mod 7);
        fu_limit = tag mod 5;
        clock_mhz = 100.0 +. float_of_int (tag mod 11);
      }
  in
  {
    M.fp = Point.fingerprint ~workload point;
    workload;
    point;
    cycles = Int64.of_int (1000 + tag);
    seconds = 1e-6 *. float_of_int (1 + tag);
    total_mw = 10.0 +. (0.125 *. float_of_int tag);
    datapath_mw = 8.0;
    area_um2 = 1e5;
    correct = true;
    active_cycles = tag;
    issue_cycles = tag;
    stall_cycles = 0;
    stall_load_only = 0;
    stall_load_compute = 0;
    stall_load_store_compute = 0;
    stall_other = 0;
    cycles_with_load = 0;
    cycles_with_store = 0;
    cycles_with_load_and_store = 0;
    loads_issued = 0;
    stores_issued = 0;
    issued_fp = 0;
    issued_int = 0;
    issued_mem = 0;
    fmul_occupancy = 0.5;
    fmul_allocated = 2;
    spm_reads = 0;
    spm_writes = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "salam_shard_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let lines_of dir = Filename.concat dir "shard-00.jsonl"

(* a store directory whose one file holds [contents] *)
let write_store dir contents =
  write_file (Filename.concat dir "shards.manifest") "salam-shards 1\ncount=1\n";
  write_file (lines_of dir) contents

let test_first_add_wins () =
  let a = synthetic 1 in
  (* the same point measured with another result *)
  let clash = { a with M.cycles = Int64.succ a.M.cycles } in
  let s = Shard.in_memory () in
  Shard.add s a;
  Shard.add s clash;
  (match Shard.find s ~fp:a.M.fp with
  | Some m -> Alcotest.(check string) "first add wins" (M.to_line a) (M.to_line m)
  | None -> Alcotest.fail "fingerprint vanished");
  Alcotest.(check int) "duplicate not counted" 1 (Shard.size s);
  Shard.close s;
  (* the same holds for two lines of one file at open *)
  with_temp_dir (fun dir ->
      write_store dir (M.to_line a ^ "\n" ^ M.to_line clash ^ "\n");
      let s = Shard.open_ dir in
      (match Shard.find s ~fp:a.M.fp with
      | Some m -> Alcotest.(check string) "first line wins" (M.to_line a) (M.to_line m)
      | None -> Alcotest.fail "fingerprint vanished");
      Alcotest.(check int) "duplicate line not counted" 1 (Shard.size s);
      Shard.close s)

let test_in_memory_has_no_path () =
  let s = Shard.in_memory () in
  Alcotest.(check bool) "no path" true (Shard.path s = None);
  Alcotest.(check int) "empty" 0 (Shard.size s);
  Shard.close s

(* where member [key]'s value text lies in [line]: a string's text runs
   to its closing quote, any other value's to the ',' or '}' after it *)
let value_span line key =
  let tag = Printf.sprintf "\"%s\":" key in
  let n = String.length tag in
  let rec find i = if String.sub line i n = tag then i else find (i + 1) in
  let start = find 0 + n in
  let stop =
    if line.[start] = '"' then String.index_from line (start + 1) '"' + 1
    else
      let rec go j = if line.[j] = ',' || line.[j] = '}' then j else go (j + 1) in
      go start
  in
  (start, stop)

(* [line] with member [key]'s value text replaced by [text] *)
let set_member line key text =
  let start, stop = value_span line key in
  String.sub line 0 start ^ text ^ String.sub line stop (String.length line - stop)

(* member [key]'s text as the line writes it, its value included *)
let member_text line key =
  let start, stop = value_span line key in
  Printf.sprintf "\"%s\":" key ^ String.sub line start (stop - start)

(* --- repair and refusal ------------------------------------------- *)

let truncate_tail path bytes =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (max 0 (size - bytes));
  Unix.close fd

let test_truncated_shard_tail_repaired () =
  with_temp_dir (fun dir ->
      let ms = List.init 30 synthetic in
      let s = Shard.open_ dir in
      List.iter (Shard.add s) ms;
      Shard.close s;
      truncate_tail (lines_of dir) 7;
      let s = Shard.open_ dir in
      Alcotest.(check bool) "repair reported" true (Shard.repaired_bytes s > 0);
      (* exactly the last record is gone; every other measurement still
         round-trips bit-identically *)
      let lost =
        List.filter (fun (m : M.t) -> Shard.find s ~fp:m.M.fp = None) ms
      in
      Alcotest.(check (list string)) "exactly the last record lost"
        [ M.to_line (List.nth ms 29) ] (List.map M.to_line lost);
      List.iter
        (fun (m : M.t) ->
          if not (List.memq m lost) then
            match Shard.find s ~fp:m.M.fp with
            | Some got ->
                Alcotest.(check string) "bit-identical survivor" (M.to_line m) (M.to_line got)
            | None -> Alcotest.fail "survivor vanished")
        ms;
      Shard.close s;
      (* the repair rewrote the file: reopening is clean *)
      let s = Shard.open_ dir in
      Alcotest.(check int) "clean reopen" 0 (Shard.repaired_bytes s);
      Shard.close s)

let test_unterminated_complete_line_kept () =
  (* an append cut just before its '\n' leaves a whole record: it is
     kept, and the next line starts on a line of its own *)
  with_temp_dir (fun dir ->
      let a = synthetic 1 and b = synthetic 2 in
      write_store dir (M.to_line a);
      let s = Shard.open_ dir in
      Alcotest.(check int) "nothing repaired" 0 (Shard.repaired_bytes s);
      Alcotest.(check int) "the record is kept" 1 (Shard.size s);
      Shard.add s b;
      Shard.close s;
      Alcotest.(check string) "appended on a fresh line"
        (M.to_line a ^ "\n" ^ M.to_line b ^ "\n")
        (read_file (lines_of dir)))

let test_mid_file_corruption_refused () =
  with_temp_dir (fun dir ->
      let s = Shard.open_ dir in
      List.iter (Shard.add s) (List.init 4 synthetic);
      Shard.close s;
      let path = Filename.concat dir "shard-00.jsonl" in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      (match lines with
      | first :: rest ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (first ^ "\n");
              Out_channel.output_string oc "{\"garbage\n";
              List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) rest)
      | [] -> Alcotest.fail "shard unexpectedly empty");
      match Shard.open_ dir with
      | exception Failure _ -> ()
      | s ->
          Shard.close s;
          Alcotest.fail "mid-shard corruption must not be silently repaired")

(* Only a final line with no '\n' and no closing '}' is an interrupted
   append. A file whose complete lines do not parse is some other file,
   or a store mangled in transit; opening it must fail with the path and
   line, and leave every byte where it was. *)
let test_not_a_truncated_store_refused () =
  (* CRLF lines made from what a store writes, so that only the line
     ending is wrong *)
  let written =
    with_temp_dir (fun dir ->
        let s = Shard.open_ dir in
        List.iter (Shard.add s) (List.init 3 synthetic);
        Shard.close s;
        read_file (lines_of dir))
  in
  let crlf =
    String.concat "\r\n"
      (String.split_on_char '\n' (String.sub written 0 (String.length written - 1)))
    ^ "\r\n"
  in
  (* a whole last line, its newline not yet written, with a bad value *)
  let bad_last =
    M.to_line (synthetic 0) ^ "\n" ^ set_member (M.to_line (synthetic 1)) "cycles" "\"1001\""
  in
  List.iter
    (fun (name, contents, line) ->
      with_temp_dir (fun dir ->
          write_store dir contents;
          let path = lines_of dir in
          (match Shard.open_ dir with
          | exception Failure e ->
              let names s = Alcotest.(check bool) (Printf.sprintf "%S names %s" e s) true in
              names "the path" (contains e path);
              names line (contains e line)
          | s ->
              Shard.close s;
              Alcotest.failf "%s opened as a store" name);
          Alcotest.(check string) (name ^ " bytes unchanged") contents (read_file path)))
    [
      ("csv", "point,cycles\ngemm,1973\nspmv,812\n", "line 1 ");
      ("crlf", crlf, "line 1 ");
      ("one line", "not a store, no newline", "line 1 ");
      ("a complete last line with a bad value", bad_last, "line 2 ");
    ]

(* --- manifest discipline ------------------------------------------ *)

(* A single JSONL file, and directories written when stores were
   sharded (N files, or renamed by a reshard), hold lines from before
   the model epoch: each is refused by name, and left byte for byte. *)
let test_older_layouts_refused () =
  let line = M.to_line (synthetic 1) ^ "\n" in
  with_temp_dir (fun root ->
      let at name = Filename.concat root name in
      write_file (at "single.jsonl") line;
      Sys.mkdir (at "count3") 0o755;
      write_file (at "count3/shards.manifest") "salam-shards 1\ncount=3\n";
      List.iter
        (fun i -> write_file (at (Printf.sprintf "count3/shard-%02d.jsonl" i)) line)
        [ 0; 1; 2 ];
      Sys.mkdir (at "gen1") 0o755;
      write_file (at "gen1/shards.manifest") "salam-shards 1\ncount=1\ngen=1\n";
      write_file (at "gen1/shard-00.g1.jsonl") line;
      let before = Filename.temp_file "salam_shard_before" "" in
      Sys.remove before;
      let run cmd = Sys.command (Filename.quote_command (List.hd cmd) (List.tl cmd)) in
      Alcotest.(check int) "snapshot taken" 0 (run [ "cp"; "-R"; root; before ]);
      Fun.protect
        ~finally:(fun () -> ignore (run [ "rm"; "-rf"; before ]))
        (fun () ->
          List.iter
            (fun name ->
              (match Shard.open_ (at name) with
              | exception Failure e ->
                  Alcotest.(check bool) (Printf.sprintf "%S names the path" e) true
                    (contains e (at name));
                  Alcotest.(check bool) (Printf.sprintf "%S names the epoch" e) true
                    (contains e "predates model epoch")
              | s ->
                  Shard.close s;
                  Alcotest.failf "%s opened as a store" name);
              Alcotest.(check int) (name ^ ": diff -r finds no change") 0
                (run [ "diff"; "-r"; Filename.concat before name; at name ]))
            [ "single.jsonl"; "count3"; "gen1" ]))

let test_missing_manifest_refused () =
  with_temp_dir (fun dir ->
      Unix.mkdir (Filename.concat dir "d") 0o755;
      Out_channel.with_open_text
        (Filename.concat (Filename.concat dir "d") "stray.txt")
        (fun oc -> Out_channel.output_string oc "not a store\n");
      match Shard.open_ (Filename.concat dir "d") with
      | exception Failure _ -> ()
      | s ->
          Shard.close s;
          Alcotest.fail "a non-empty directory without a manifest is not a store")

(* --- one lock, many writers --------------------------------------- *)

let test_concurrent_writers () =
  (* four domains add and find at once: 150 measurements each of their
     own, and 150 that all four add *)
  let domains = 4 and per = 150 in
  let own d = List.init per (fun k -> synthetic ((1000 * (d + 1)) + k)) in
  let shared = List.init per (fun k -> synthetic (10_000 + k)) in
  let expected = shared @ List.concat (List.init domains own) in
  with_temp_dir (fun dir ->
      let s = Shard.open_ dir in
      let ready = Atomic.make 0 in
      let worker d () =
        (* start together, so the adds really overlap *)
        Atomic.incr ready;
        while Atomic.get ready < domains do
          Domain.cpu_relax ()
        done;
        List.iter2
          (fun mine common ->
            List.iter
              (fun (m : M.t) ->
                Shard.add s m;
                match Shard.find s ~fp:m.M.fp with
                | Some got when M.to_line got = M.to_line m -> ()
                | Some _ | None -> failwith "lost a measurement it just added")
              [ mine; common ])
          (own d) shared
      in
      List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
      Alcotest.(check int) "distinct count" (List.length expected) (Shard.size s);
      Shard.close s;
      let contents = read_file (Filename.concat dir "shard-00.jsonl") in
      Alcotest.(check bool) "file ends on a complete line" true
        (String.ends_with ~suffix:"\n" contents);
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' contents) in
      Alcotest.(check int) "one line per distinct measurement" (List.length expected)
        (List.length lines);
      List.iter
        (fun l ->
          match M.of_line l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "interleaved or torn line (%s): %s" e l)
        lines;
      let s = Shard.open_ dir in
      Alcotest.(check int) "reopen finds the distinct count" (List.length expected) (Shard.size s);
      List.iter
        (fun (m : M.t) ->
          match Shard.find s ~fp:m.M.fp with
          | Some got -> Alcotest.(check string) "bit-identical hit" (M.to_line m) (M.to_line got)
          | None -> Alcotest.fail "measurement lost across reopen")
        expected;
      Shard.close s)

(* [line] with the members [a] and [b] (adjacent, [a] first) swapped *)
let swap_members line a b =
  let ta = member_text line a and tb = member_text line b in
  let pair = ta ^ "," ^ tb in
  let n = String.length pair in
  let rec find i = if String.sub line i n = pair then i else find (i + 1) in
  let i = find 0 in
  String.sub line 0 i ^ tb ^ "," ^ ta ^ String.sub line (i + n) (String.length line - i - n)

let float_fields =
  [ "clock_mhz"; "cycle_time_ns"; "seconds"; "total_mw"; "datapath_mw"; "area_um2"; "fmul_occupancy" ]

(* [line] as stores wrote it before floats were hex: each finite
   float's "%h" string as the bare number "%.17g" writes *)
let decimal_line m =
  List.fold_left
    (fun line (k, f) ->
      if Float.is_finite f then set_member line k (Printf.sprintf "%.17g" f) else line)
    (M.to_line m)
    (List.combine float_fields
       [
         m.M.point.Point.clock_mhz; m.M.point.Point.cycle_time_ns; m.M.seconds; m.M.total_mw;
         m.M.datapath_mw; m.M.area_um2; m.M.fmul_occupancy;
       ])

(* [contents] as a store's file, opened: refused with the path and
   [want] named, its bytes left as they were *)
let refused ~what contents want =
  with_temp_dir (fun dir ->
      write_store dir contents;
      let path = lines_of dir in
      (match Shard.open_ dir with
      | exception Failure e ->
          let names s = Alcotest.(check bool) (Printf.sprintf "%s: %S names %s" what e s) true in
          names "the path" (contains e path);
          names want (contains e want)
      | s ->
          Shard.close s;
          Alcotest.failf "%s: the store opened" what);
      Alcotest.(check string) (what ^ ": bytes unchanged") contents (read_file path))

(* A line in any spelling but the writer's cannot be what a lookup is
   answered with: a store holding one (floats as decimals, as stores
   wrote them before floats were hex; members swapped; a space; a
   member repeated or unknown) is refused by path and line, and its
   bytes are left as they were. *)
let test_non_canonical_store_refused () =
  let good = M.to_line (synthetic 4) in
  let m =
    let m = synthetic 1 in
    { m with M.total_mw = -0.0; seconds = 1.0 /. 3.0; area_um2 = 4.9e-324 }
  in
  let line = M.to_line m in
  let decimal = decimal_line m in
  List.iter
    (fun spelled -> Alcotest.(check bool) spelled true (contains decimal spelled))
    [ "\"clock_mhz\":101,"; "\"total_mw\":-0,"; "\"seconds\":0.33333333333333331," ];
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) (what ^ ": not the line") false (String.equal bad line);
      refused ~what (good ^ "\n" ^ bad ^ "\n") "line 2 ";
      refused ~what:(what ^ ", last line") (good ^ "\n" ^ bad) "line 2 ")
    [
      ("decimal floats", decimal);
      ("swapped members", swap_members line "cycles" "seconds");
      ("a space", set_member line "banks" (" " ^ string_of_int m.M.point.Point.banks));
      ("a repeated member", set_member line "banks" "3,\"banks\":3");
      ("an unknown member", set_member line "correct" "true,\"note\":\"x\"");
    ]

(* A line whose point was altered by hand, its fp kept, would answer for
   a point it does not describe: its fingerprint is checked against its
   own workload and point, and the store refused by path and line. *)
let test_foreign_fingerprint_refused () =
  let m = synthetic 2 in
  let line = M.to_line m in
  let altered =
    set_member line "banks" (string_of_int (m.M.point.Point.banks + 2))
  in
  (match M.of_line altered with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the altered line must decode: %s" e);
  let good = M.to_line (synthetic 5) in
  refused ~what:"altered knob" (good ^ "\n" ^ altered ^ "\n") "line 2 ";
  refused ~what:"altered knob, why" (altered ^ "\n") "another model epoch or is corrupt";
  (* a line of another workload's identity, its point the same *)
  refused ~what:"another workload"
    (set_member line "workload" "\"shardtest99\"" ^ "\n")
    "line 1 "

let suite =
  [
    Alcotest.test_case "a non-canonical store refused by line, bytes untouched" `Quick
      test_non_canonical_store_refused;
    Alcotest.test_case "duplicate fingerprint keeps the first add" `Quick test_first_add_wins;
    Alcotest.test_case "in-memory store" `Quick test_in_memory_has_no_path;
    Alcotest.test_case "truncated shard tail repaired" `Quick test_truncated_shard_tail_repaired;
    Alcotest.test_case "unterminated complete last line kept" `Quick
      test_unterminated_complete_line_kept;
    Alcotest.test_case "mid-shard corruption refused" `Quick test_mid_file_corruption_refused;
    Alcotest.test_case "file that is not a truncated store refused" `Quick
      test_not_a_truncated_store_refused;
    Alcotest.test_case "older store layouts refused, bytes untouched" `Quick
      test_older_layouts_refused;
    Alcotest.test_case "missing manifest refused" `Quick test_missing_manifest_refused;
    Alcotest.test_case "four domains add and find on one store" `Quick test_concurrent_writers;
    Alcotest.test_case "a line whose fp is not its own refused" `Quick
      test_foreign_fingerprint_refused;
  ]
