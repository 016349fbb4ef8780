(* Tests for the sharded result store: read equivalence with a legacy
   single-file store, resharding round-trips, per-shard truncated-tail
   repair, and manifest discipline. *)

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

let line_set ms = List.sort compare (List.map M.to_line ms)

(* --- read equivalence with a legacy single-file store --------------- *)

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
          let sharded = Shard.open_ ~shards shard_dir in
          List.iter
            (fun m ->
              Shard.add mono m;
              Shard.add sharded m)
            ms;
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
            Shard.shard_count reopened = shards
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
  Shard.close s

let test_in_memory_has_no_path () =
  let s = Shard.in_memory ~shards:3 () in
  Alcotest.(check int) "shard count" 3 (Shard.shard_count s);
  Alcotest.(check bool) "no path" true (Shard.path s = None);
  Alcotest.(check int) "empty" 0 (Shard.size s);
  Shard.close s

(* --- resharding --------------------------------------------------- *)

let test_reshard_round_trip () =
  with_temp_dir (fun dir ->
      let ms = List.init 40 synthetic in
      let s = Shard.open_ ~shards:4 dir in
      List.iter (Shard.add s) ms;
      let before = line_set (Shard.entries s) in
      Shard.close s;
      List.iter
        (fun shards ->
          Shard.reshard ~shards dir;
          let s = Shard.open_ dir in
          Alcotest.(check int)
            (Printf.sprintf "count after reshard to %d" shards)
            shards (Shard.shard_count s);
          Alcotest.(check (list string))
            (Printf.sprintf "entries after reshard to %d" shards)
            before
            (line_set (Shard.entries s));
          Shard.close s)
        [ 7; 1; 8 ])

let test_reshard_same_count_is_noop () =
  with_temp_dir (fun dir ->
      let s = Shard.open_ ~shards:4 dir in
      List.iter (Shard.add s) (List.init 10 synthetic);
      Shard.close s;
      let mtimes () =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f -> (f, (Unix.stat (Filename.concat dir f)).Unix.st_mtime))
      in
      let before = mtimes () in
      Shard.reshard ~shards:4 dir;
      Alcotest.(check bool) "files untouched" true (before = mtimes ()))

let test_reshard_crash_windows_lose_nothing () =
  with_temp_dir (fun dir ->
      let ms = List.init 25 synthetic in
      let s = Shard.open_ ~shards:4 dir in
      List.iter (Shard.add s) ms;
      let before = line_set (Shard.entries s) in
      Shard.close s;
      (* emulate a reshard that crashed before the manifest commit: the
         next generation's files exist, partial or empty *)
      Out_channel.with_open_text (Filename.concat dir "shard-00.g1.jsonl") (fun oc ->
          Out_channel.output_string oc "{\"partial");
      Out_channel.with_open_text (Filename.concat dir "shard-01.g1.jsonl") (fun _ -> ());
      (* the store still opens at the old layout, with nothing lost *)
      let s = Shard.open_ dir in
      Alcotest.(check int) "old shard count survives the crash" 4 (Shard.shard_count s);
      Alcotest.(check (list string)) "no entry lost" before (line_set (Shard.entries s));
      Shard.close s;
      (* ...and retrying the reshard succeeds despite the stale files *)
      Shard.reshard ~shards:6 dir;
      let s = Shard.open_ dir in
      Alcotest.(check int) "retried reshard committed" 6 (Shard.shard_count s);
      Alcotest.(check (list string)) "entries after retry" before (line_set (Shard.entries s));
      Shard.close s;
      (* an orphaned old-generation file (crash after the commit, before
         the cleanup removes) is invisible to readers *)
      Out_channel.with_open_text (Filename.concat dir "shard-03.jsonl") (fun oc ->
          Out_channel.output_string oc "garbage that is not even json\n");
      let s = Shard.open_ dir in
      Alcotest.(check (list string)) "orphan ignored" before (line_set (Shard.entries s));
      Shard.close s)

(* --- per-shard repair --------------------------------------------- *)

let shard_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort compare

let truncate_tail path bytes =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (max 0 (size - bytes));
  Unix.close fd

let test_truncated_shard_tail_repaired () =
  with_temp_dir (fun dir ->
      let ms = List.init 30 synthetic in
      let s = Shard.open_ ~shards:4 dir in
      List.iter (Shard.add s) ms;
      Shard.close s;
      (* chop a few bytes off the tail of the most populated shard *)
      let victim =
        shard_files dir
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

let test_mid_file_corruption_refused () =
  with_temp_dir (fun dir ->
      let s = Shard.open_ ~shards:1 dir in
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

(* --- manifest discipline ------------------------------------------ *)

let test_manifest_conflict_refused () =
  with_temp_dir (fun dir ->
      let s = Shard.open_ ~shards:4 dir in
      Shard.close s;
      (match Shard.open_ ~shards:8 dir with
      | exception Failure _ -> ()
      | s ->
          Shard.close s;
          Alcotest.fail "conflicting explicit shard count must be refused");
      (* implicit reopen adopts the manifest *)
      let s = Shard.open_ dir in
      Alcotest.(check int) "manifest wins" 4 (Shard.shard_count s);
      Shard.close s)

let test_open_plain_file_in_place () =
  let path = Filename.temp_file "salam_shard_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let a = synthetic 1 and b = synthetic 2 in
      let s = Shard.open_ path in
      Alcotest.(check int) "one shard" 1 (Shard.shard_count s);
      Alcotest.(check (option string)) "path is the file" (Some path) (Shard.path s);
      Shard.add s b;
      Shard.add s a;
      Shard.close s;
      Alcotest.(check string) "appended to the file itself"
        (M.to_line b ^ "\n" ^ M.to_line a ^ "\n")
        (In_channel.with_open_bin path In_channel.input_all);
      let s = Shard.open_ ~shards:1 path in
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

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_sharded_equals_monolithic;
    Alcotest.test_case "first add wins across shards" `Quick test_first_add_wins;
    Alcotest.test_case "in-memory store" `Quick test_in_memory_has_no_path;
    Alcotest.test_case "reshard 4->7->1->8 round-trip" `Quick test_reshard_round_trip;
    Alcotest.test_case "reshard to same count is a no-op" `Quick test_reshard_same_count_is_noop;
    Alcotest.test_case "reshard crash windows lose nothing" `Quick
      test_reshard_crash_windows_lose_nothing;
    Alcotest.test_case "truncated shard tail repaired" `Quick test_truncated_shard_tail_repaired;
    Alcotest.test_case "mid-shard corruption refused" `Quick test_mid_file_corruption_refused;
    Alcotest.test_case "manifest conflict refused" `Quick test_manifest_conflict_refused;
    Alcotest.test_case "plain file opens in place" `Quick test_open_plain_file_in_place;
    Alcotest.test_case "missing manifest refused" `Quick test_missing_manifest_refused;
  ]
