(* Tests for the result store: directories written when stores were
   sharded read like one file, truncated-tail repair and the refusal of
   anything else, manifest discipline, and concurrent writers on the one
   lock. *)

module Point = Salam_dse.Point
module M = Salam_dse.Measurement
module Shard = Salam_dse.Store_shard

let synthetic ?(workload = "shardtest") tag =
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
    M.fp = Point.fingerprint ~workload:(Printf.sprintf "%s%d" workload tag) point;
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

let copy_dir src dst =
  Array.iter
    (fun f ->
      let contents = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc contents))
    (Sys.readdir src)

let line_set ms = List.sort compare (List.map M.to_line ms)

(* --- directories written when stores were sharded ----------------- *)

let shard_name ~gen i =
  if gen = 0 then Printf.sprintf "shard-%02d.jsonl" i else Printf.sprintf "shard-%02d.g%d.jsonl" i gen

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* An N-way directory in the layout sharded releases wrote: a manifest
   (with a [gen] line after a reshard) and measurement [m] in file
   [top_byte(m.fp) mod N], in order. *)
let write_sharded_dir ?(gen = 0) dir ~shards ms =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let buckets = Array.make shards [] in
  List.iter
    (fun (m : M.t) ->
      let i = Int64.to_int (Int64.shift_right_logical m.M.fp 56) mod shards in
      buckets.(i) <- m :: buckets.(i))
    ms;
  Array.iteri
    (fun i ms ->
      if ms <> [] then
        write_file
          (Filename.concat dir (shard_name ~gen i))
          (String.concat "" (List.rev_map (fun m -> M.to_line m ^ "\n") ms)))
    buckets;
  write_file
    (Filename.concat dir "shards.manifest")
    (Printf.sprintf "salam-shards 1\ncount=%d\n%s" shards
       (if gen > 0 then Printf.sprintf "gen=%d\n" gen else ""))

let qcheck_sharded_equals_monolithic =
  QCheck.Test.make ~name:"sharded store reads like a monolithic one" ~count:30
    QCheck.(pair (int_range 1 32) (int_range 0 60))
    (fun (shards, n) ->
      (* the shrinker can step outside int_range's bounds *)
      let shards = max 1 shards and n = max 0 n in
      let ms = List.init n synthetic in
      with_temp_dir (fun dir ->
          let mono_path = Filename.concat dir "mono.jsonl" in
          close_out (open_out_bin mono_path);
          let mono = Shard.open_ mono_path in
          let shard_dir = Filename.concat dir "sharded" in
          (* the first half was written sharded, the rest is added now *)
          let old = List.filteri (fun i _ -> i < n / 2) ms in
          write_sharded_dir shard_dir ~shards old;
          let manifest = read_file (Filename.concat shard_dir "shards.manifest") in
          let sharded = Shard.open_ shard_dir in
          List.iter (Shard.add mono) ms;
          List.iter (Shard.add sharded) ms;
          let equivalent =
            List.for_all
              (fun (m : M.t) ->
                match (Shard.find mono ~fp:m.M.fp, Shard.find sharded ~fp:m.M.fp) with
                | Some a, Some b -> M.to_line a = M.to_line b
                | _ -> false)
              ms
            && Shard.size mono = Shard.size sharded
            && line_set (Shard.entries mono) = line_set (Shard.entries sharded)
          in
          (* ...and equivalence survives a reopen from disk *)
          Shard.close sharded;
          Shard.close mono;
          let reopened = Shard.open_ shard_dir in
          let persisted =
            read_file (Filename.concat shard_dir "shards.manifest") = manifest
            && List.for_all
                 (fun (m : M.t) ->
                   match Shard.find reopened ~fp:m.M.fp with
                   | Some b -> M.to_line m = M.to_line b
                   | None -> false)
                 ms
          in
          Shard.close reopened;
          equivalent && persisted))

let test_first_add_wins () =
  let a = synthetic 1 in
  let clash = { (synthetic 2) with M.fp = a.M.fp } in
  let s = Shard.in_memory () in
  Shard.add s a;
  Shard.add s clash;
  (match Shard.find s ~fp:a.M.fp with
  | Some m -> Alcotest.(check string) "first add wins" (M.to_line a) (M.to_line m)
  | None -> Alcotest.fail "fingerprint vanished");
  Alcotest.(check int) "duplicate not counted" 1 (Shard.size s);
  Shard.close s;
  (* across the files of an old sharded directory, the lower index wins *)
  with_temp_dir (fun dir ->
      write_file (Filename.concat dir (shard_name ~gen:0 0)) (M.to_line a ^ "\n");
      write_file (Filename.concat dir (shard_name ~gen:0 1)) (M.to_line clash ^ "\n");
      write_file (Filename.concat dir "shards.manifest") "salam-shards 1\ncount=2\n";
      let s = Shard.open_ dir in
      (match Shard.find s ~fp:a.M.fp with
      | Some m -> Alcotest.(check string) "first file wins" (M.to_line a) (M.to_line m)
      | None -> Alcotest.fail "fingerprint vanished");
      Alcotest.(check int) "duplicate not counted across files" 1 (Shard.size s);
      Shard.close s)

let test_in_memory_has_no_path () =
  let s = Shard.in_memory () in
  Alcotest.(check bool) "no path" true (Shard.path s = None);
  Alcotest.(check int) "empty" 0 (Shard.size s);
  Shard.close s

let test_old_sharded_dir_appends_to_first_file () =
  with_temp_dir (fun dir ->
      let ms = List.init 12 synthetic in
      write_sharded_dir dir ~gen:2 ~shards:3 ms;
      let before =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
      in
      let s = Shard.open_ dir in
      (* entries run through the files in index order *)
      let by_file =
        List.concat_map
          (fun (f, contents) ->
            if Filename.check_suffix f ".jsonl" then
              List.filter (( <> ) "") (String.split_on_char '\n' contents)
            else [])
          before
      in
      Alcotest.(check (list string)) "entries in file index order" by_file
        (List.map M.to_line (Shard.entries s));
      let extra = synthetic 99 in
      Shard.add s extra;
      Shard.close s;
      let first = Filename.concat dir (shard_name ~gen:2 0) in
      Alcotest.(check string) "new line appended to the first live file"
        (List.assoc (shard_name ~gen:2 0) before ^ M.to_line extra ^ "\n")
        (read_file first);
      List.iter
        (fun (f, contents) ->
          if f <> shard_name ~gen:2 0 then
            Alcotest.(check string) (f ^ " untouched") contents
              (read_file (Filename.concat dir f)))
        before;
      let s = Shard.open_ dir in
      Alcotest.(check int) "every line found on reopen" 13 (Shard.size s);
      Shard.close s)

(* --- repair and refusal ------------------------------------------- *)

let truncate_tail path bytes =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (max 0 (size - bytes));
  Unix.close fd

let test_truncated_shard_tail_repaired () =
  with_temp_dir (fun dir ->
      let ms = List.init 30 synthetic in
      write_sharded_dir dir ~shards:4 ms;
      (* chop a few bytes off the tail of the most populated shard *)
      let victim =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
        |> List.map (fun f -> Filename.concat dir f)
        |> List.sort (fun a b ->
               compare (Unix.stat b).Unix.st_size (Unix.stat a).Unix.st_size)
        |> List.hd
      in
      truncate_tail victim 7;
      let s = Shard.open_ dir in
      Alcotest.(check bool) "repair reported" true (Shard.repaired_bytes s > 0);
      (* exactly the victim's last record is gone; every other
         measurement still round-trips bit-identically *)
      let lost =
        List.filter (fun (m : M.t) -> Shard.find s ~fp:m.M.fp = None) ms
      in
      Alcotest.(check int) "exactly one record lost" 1 (List.length lost);
      List.iter
        (fun (m : M.t) ->
          if not (List.memq m lost) then
            match Shard.find s ~fp:m.M.fp with
            | Some got ->
                Alcotest.(check string) "bit-identical survivor" (M.to_line m) (M.to_line got)
            | None -> Alcotest.fail "survivor vanished")
        ms;
      Shard.close s;
      (* the repair rewrote the shard: reopening is clean *)
      let s = Shard.open_ dir in
      Alcotest.(check int) "clean reopen" 0 (Shard.repaired_bytes s);
      Shard.close s)

let test_unterminated_complete_line_kept () =
  (* an append cut just before its '\n' leaves a whole record: it is
     kept, and the next line starts on a line of its own *)
  let path = Filename.temp_file "salam_shard_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let a = synthetic 1 and b = synthetic 2 in
      write_file path (M.to_line a);
      let s = Shard.open_ path in
      Alcotest.(check int) "nothing repaired" 0 (Shard.repaired_bytes s);
      Alcotest.(check int) "the record is kept" 1 (Shard.size s);
      Shard.add s b;
      Shard.close s;
      Alcotest.(check string) "appended on a fresh line"
        (M.to_line a ^ "\n" ^ M.to_line b ^ "\n")
        (read_file path))

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

(* Only a final line with no '\n' is an interrupted append. A file whose
   complete lines do not parse is some other file, or a store mangled
   in transit; opening it must fail with the path and line, and leave
   every byte where it was. *)
let test_not_a_truncated_store_refused () =
  let legacy = read_file (Filename.concat "golden" "legacy_store.jsonl") in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' (String.sub legacy 0 (String.length legacy - 1)))
    ^ "\r\n"
  in
  List.iter
    (fun (name, contents) ->
      let path = Filename.temp_file "salam_shard_test" name in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_file path contents;
          (match Shard.open_ path with
          | exception Failure e ->
              let names s = Alcotest.(check bool) (Printf.sprintf "%S names %s" e s) true in
              names "the path" (contains e path);
              names "line 1" (contains e "line 1 ")
          | s ->
              Shard.close s;
              Alcotest.failf "%s opened as a store" name);
          Alcotest.(check string) (name ^ " bytes unchanged") contents (read_file path)))
    [
      ("notes.csv", "point,cycles\ngemm,1973\nspmv,812\n");
      ("crlf.jsonl", crlf);
      ("one-line.txt", "not a store, no newline");
    ]

(* --- manifest discipline ------------------------------------------ *)

let test_open_plain_file_in_place () =
  let path = Filename.temp_file "salam_shard_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let a = synthetic 1 and b = synthetic 2 in
      let s = Shard.open_ path in
      Alcotest.(check (option string)) "path is the file" (Some path) (Shard.path s);
      Shard.add s b;
      Shard.add s a;
      Shard.close s;
      Alcotest.(check string) "appended to the file itself"
        (M.to_line b ^ "\n" ^ M.to_line a ^ "\n")
        (In_channel.with_open_bin path In_channel.input_all);
      let s = Shard.open_ path in
      Alcotest.(check (list string)) "insertion order on reopen"
        [ M.to_line b; M.to_line a ]
        (List.map M.to_line (Shard.entries s));
      Shard.close s)

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

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_sharded_equals_monolithic;
    Alcotest.test_case "first add wins across shards" `Quick test_first_add_wins;
    Alcotest.test_case "in-memory store" `Quick test_in_memory_has_no_path;
    Alcotest.test_case "old sharded directory appends to its first file" `Quick
      test_old_sharded_dir_appends_to_first_file;
    Alcotest.test_case "truncated shard tail repaired" `Quick test_truncated_shard_tail_repaired;
    Alcotest.test_case "unterminated complete last line kept" `Quick
      test_unterminated_complete_line_kept;
    Alcotest.test_case "mid-shard corruption refused" `Quick test_mid_file_corruption_refused;
    Alcotest.test_case "file that is not a truncated store refused" `Quick
      test_not_a_truncated_store_refused;
    Alcotest.test_case "plain file opens in place" `Quick test_open_plain_file_in_place;
    Alcotest.test_case "missing manifest refused" `Quick test_missing_manifest_refused;
    Alcotest.test_case "four domains add and find on one store" `Quick test_concurrent_writers;
  ]
