(* Tests for the salam_dse subsystem: fingerprint stability, the JSONL
   codec, store persistence/repair, Pareto extraction, and the
   bit-identity of cache hits vs fresh simulation. *)

module Point = Salam_dse.Point
module Space = Salam_dse.Space
module Jsonl = Test_codec.Jsonl
module M = Salam_dse.Measurement
module Store_shard = Salam_dse.Store_shard
module Pareto = Salam_dse.Pareto
module Dse = Salam_dse.Explore

(* a file of the built tree, found from the test binary's own directory
   so that the tests pass from any working directory *)
let built path = Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." path)

let bin name = built (Printf.sprintf "bin/%s.exe" name)

let tiny_target = Dse.gemm_target ~n:8 ()

let tiny_spaces =
  [
    Space.create ~derive:Space.spm_balanced
      [ Space.Read_ports [ 2; 4 ]; Space.Fu_limit [ 0; 2 ] ];
  ]

(* --- fingerprints ------------------------------------------------- *)

let test_fingerprint_axis_order () =
  (* the same space declared with its axes in either order enumerates
     the same fingerprints (sorted-field serialization) *)
  let a =
    Space.create ~derive:Space.spm_balanced
      [ Space.Read_ports [ 2; 4; 8 ]; Space.Fu_limit [ 0; 2 ] ]
  in
  let b =
    Space.create ~derive:Space.spm_balanced
      [ Space.Fu_limit [ 2; 0 ]; Space.Read_ports [ 8; 4; 2 ] ]
  in
  let fps s =
    Space.enumerate s
    |> List.map (fun p -> Point.fingerprint ~workload:"w" p)
    |> List.sort Int64.compare
  in
  Alcotest.(check (list int64)) "same fingerprints" (fps a) (fps b)

let test_fingerprint_canonical () =
  (* knobs the memory kind ignores do not affect the fingerprint *)
  let spm = { Point.default with Point.cache_bytes = 4096 } in
  Alcotest.(check int64) "spm ignores cache_bytes"
    (Point.fingerprint ~workload:"w" Point.default)
    (Point.fingerprint ~workload:"w" spm);
  let cache = { Point.default with Point.memory = Point.Cache; cache_bytes = 2048 } in
  let cache' = { cache with Point.read_ports = 16; banks = 8 } in
  Alcotest.(check int64) "cache ignores ports/banks"
    (Point.fingerprint ~workload:"w" cache)
    (Point.fingerprint ~workload:"w" cache');
  Alcotest.(check bool) "workload matters" false
    (Int64.equal
       (Point.fingerprint ~workload:"a" Point.default)
       (Point.fingerprint ~workload:"b" Point.default))

let test_fingerprint_hex () =
  let fp = Point.fingerprint ~workload:"gemm" Point.default in
  let hex = Point.fingerprint_hex fp in
  Alcotest.(check int) "16 chars" 16 (String.length hex);
  Alcotest.(check (option int64)) "round-trip" (Some fp) (Point.fingerprint_of_hex hex)

(* Fingerprints key every store on disk: these are the values at model
   epoch 3 (a bump changes every one of them, on purpose). *)
let test_fingerprints_pinned () =
  let pin name workload p want =
    Alcotest.(check string) name want (Point.fingerprint_hex (Point.fingerprint ~workload p))
  in
  let gemm = "gemm_ncubed_n16_u16_j8" in
  pin "spm" gemm
    { Point.default with Point.read_ports = 8; write_ports = 4; banks = 16; fu_limit = 4; unroll = 16; junroll = 8 }
    "20b4ccd965fb401f";
  pin "cache" gemm
    { Point.default with Point.memory = Point.Cache; cache_bytes = 4096; fu_limit = 2 }
    "dfb6adeadb4c61ee";
  pin "dram" "stencil2d_32x32" { Point.default with Point.memory = Point.Dram } "88b2bce2c1793352";
  pin "another hardware database" "gemm_ncubed_n16_u1_j1"
    { Point.default with Point.hw_db = "5f3c9a7e21d04b68"; node_nm = 28 }
    "85ae76bbe2c0941f";
  pin "non-integer clock" "gemm_ncubed_n16_u1_j1#inv3#ff2"
    { Point.default with Point.clock_mhz = 333.3; cycle_time_ns = 3.0 }
    "60c294b844febee6";
  pin "5 ns row" "md_knn_64x16"
    { Point.default with Point.clock_mhz = 200.0; cycle_time_ns = 5.0 }
    "299adc659ee08266"

(* --- enumeration -------------------------------------------------- *)

let test_enumerate_dedup () =
  (* the union of overlapping spaces deduplicates canonical points *)
  let s1 = Space.create ~derive:Space.spm_balanced [ Space.Read_ports [ 2; 4 ] ] in
  let s2 = Space.create ~derive:Space.spm_balanced [ Space.Read_ports [ 4; 8 ] ] in
  Alcotest.(check int) "union of 2+2 overlapping" 3
    (List.length (Space.enumerate_all [ s1; s2 ]))

(* --- jsonl codec -------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let fields =
    [
      ("i", Jsonl.Int 9223372036854775807L);
      ("neg", Jsonl.Int (-42L));
      ("f", Jsonl.Float 0.1);
      ("tiny", Jsonl.Float 4.9e-324);
      ("b", Jsonl.Bool true);
      ("s", Jsonl.Str "quote\" slash\\ tab\t");
    ]
  in
  match Jsonl.decode_keys (List.map fst fields) (Jsonl.encode fields) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok got ->
      (* a float comes back as its "%h" string *)
      let floats =
        List.map
          (fun (k, v) ->
            match v with
            | Jsonl.Str s -> (k, Option.fold ~none:v ~some:(fun f -> Jsonl.Float f) (Jsonl.hex_text s))
            | v -> (k, v))
          got
      in
      Alcotest.(check bool) "exact round-trip" true (floats = fields)

let test_jsonl_rejects_garbage () =
  let bad s =
    match Jsonl.decode_keys [ "a" ] s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ()
  in
  bad "";
  bad "{\"a\":1";
  bad "{\"a\": 1}";
  bad "{\"a\":{\"nested\":1}}";
  bad "{\"a\":1,\"b\":2}";
  bad "{\"a\":1} ";
  bad "not json at all"

(* A string holds only the escapes the writer writes: the short ones,
   and "\u00" with two lowercase hex digits for any other control
   character. \u takes exactly four hex digits (OCaml literal syntax,
   "0_41" or "+041", must not sneak through), and the error names the
   offset. *)
let test_jsonl_unicode_escapes () =
  (* a one-field line whose string value is a \u escape with [digits] *)
  let line digits = "{\"s\":\"\\u" ^ digits ^ "\"}" in
  let decode_str s =
    match Jsonl.decode_keys [ "s" ] s with
    | Ok [ ("s", Jsonl.Str v) ] -> v
    | Ok _ -> Alcotest.failf "unexpected fields for %S" s
    | Error e -> Alcotest.failf "rejected %S: %s" s e
  in
  Alcotest.(check string) "001f" "\031" (decode_str (line "001f"));
  List.iter
    (fun s ->
      Alcotest.(check string) (String.escaped s) s (decode_str (Jsonl.encode [ ("s", Jsonl.Str s) ])))
    [ "a\001b"; "\"\\\n\r\t\000\031"; "\233" ];
  let rejects s want =
    match Jsonl.decode_keys [ "s" ] s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> Alcotest.(check string) s want e
  in
  (* the backslash is at offset 6, the 'u' at 7 *)
  List.iter
    (fun digits -> rejects (line digits) "bad \\u escape at offset 7")
    [
      "0_41"; "+041"; " 041"; "00g1"; "-001";
      (* a byte the writer writes as it is, upper case, a short escape's byte *)
      "0041"; "00e9"; "001F"; "000a"; "000d"; "0009";
    ];
  rejects "{\"s\":\"\\u004" "truncated \\u escape at offset 7";
  rejects "{\"s\":\"\\/\"}" "bad escape '\\/' at offset 7";
  rejects "{\"s\":\"a\tb\"}" "unescaped control character at offset 7"

(* --- measurement round-trip --------------------------------------- *)

let simulate_point point =
  let workload = "gemm_test" in
  let r = Salam.simulate ~config:(Point.to_config point) (Salam_workloads.Gemm.workload ~n:8 ()) in
  M.of_result ~workload ~point r

let test_measurement_roundtrip () =
  let m = simulate_point Point.default in
  match M.of_line (M.to_line m) with
  | Error e -> Alcotest.failf "of_line failed: %s" e
  | Ok m' -> Alcotest.(check bool) "structurally equal" true (m = m')

(* --- store: persistence and repair ------------------------------------ *)

let test_store_persist_and_dedup () =
  Test_store_shard.with_temp_dir (fun path ->
      let m = simulate_point Point.default in
      let s = Store_shard.open_ path in
      Store_shard.add s m;
      Store_shard.add s m;
      Alcotest.(check int) "dedup by fingerprint" 1 (Store_shard.size s);
      Store_shard.close s;
      let s2 = Store_shard.open_ path in
      Alcotest.(check int) "reloaded" 1 (Store_shard.size s2);
      Alcotest.(check int) "clean file" 0 (Store_shard.repaired_bytes s2);
      (match Store_shard.find s2 ~fp:m.M.fp with
      | None -> Alcotest.fail "fingerprint not found after reload"
      | Some m' -> Alcotest.(check bool) "bit-identical after reload" true (m = m'));
      Store_shard.close s2)

let test_store_truncated_tail () =
  Test_store_shard.with_temp_dir (fun path ->
      let m1 = simulate_point Point.default in
      let m2 = simulate_point { Point.default with Point.read_ports = 4 } in
      let s = Store_shard.open_ path in
      Store_shard.add s m1;
      Store_shard.add s m2;
      Store_shard.close s;
      (* chop into the middle of the last line, as a killed append would *)
      let full = In_channel.with_open_bin (Test_store_shard.lines_of path) In_channel.input_all in
      let cut = String.length full - 17 in
      Out_channel.with_open_bin (Test_store_shard.lines_of path) (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let s2 = Store_shard.open_ path in
      Alcotest.(check int) "intact prefix survives" 1 (Store_shard.size s2);
      Alcotest.(check bool) "damage reported" true (Store_shard.repaired_bytes s2 > 0);
      (match Store_shard.find s2 ~fp:m1.M.fp with
      | Some m' -> Alcotest.(check bool) "first entry intact" true (m1 = m')
      | None -> Alcotest.fail "first entry lost in repair");
      (* the file was rewritten clean: reopening again reports no damage *)
      Store_shard.close s2;
      let s3 = Store_shard.open_ path in
      Alcotest.(check int) "repair is persistent" 0 (Store_shard.repaired_bytes s3);
      Store_shard.close s3)

let test_store_mid_file_corruption_fails () =
  Test_store_shard.with_temp_dir (fun path ->
      let m1 = simulate_point Point.default in
      let m2 = simulate_point { Point.default with Point.read_ports = 4 } in
      let s = Store_shard.open_ path in
      Store_shard.add s m1;
      Store_shard.add s m2;
      Store_shard.close s;
      let lines =
        In_channel.with_open_bin (Test_store_shard.lines_of path) In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Out_channel.with_open_bin (Test_store_shard.lines_of path) (fun oc ->
          Out_channel.output_string oc "{broken\n";
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      match Store_shard.open_ path with
      | exception Failure _ -> ()
      | s ->
          Store_shard.close s;
          Alcotest.fail "mid-file corruption must not be silently repaired")

(* --- pareto ------------------------------------------------------- *)

let synthetic ?(correct = true) ~time_s ~power_mw ~area tag =
  let point = { Point.default with Point.read_ports = tag } in
  {
    M.fp = Point.fingerprint ~workload:(Printf.sprintf "syn%d" tag) point;
    workload = "syn";
    point;
    cycles = 1L;
    seconds = time_s;
    total_mw = power_mw;
    datapath_mw = power_mw;
    area_um2 = area;
    correct;
    active_cycles = 1;
    issue_cycles = 1;
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
    fmul_occupancy = 0.0;
    fmul_allocated = 0;
    spm_reads = 0;
    spm_writes = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let test_pareto_partition () =
  let fast_hot = synthetic ~time_s:1.0 ~power_mw:50.0 ~area:10.0 1 in
  let slow_cool = synthetic ~time_s:2.0 ~power_mw:10.0 ~area:10.0 2 in
  let dominated = synthetic ~time_s:2.5 ~power_mw:60.0 ~area:10.0 3 in
  let wrong = synthetic ~correct:false ~time_s:0.1 ~power_mw:1.0 ~area:1.0 4 in
  let front, dom = Pareto.partition [ fast_hot; slow_cool; dominated; wrong ] in
  Alcotest.(check int) "front size" 2 (List.length front);
  Alcotest.(check int) "dominated size" 2 (List.length dom);
  Alcotest.(check bool) "incorrect never on front" false (List.memq wrong front);
  Alcotest.(check bool) "trade-off points both kept" true
    (List.memq fast_hot front && List.memq slow_cool front)

let test_pareto_dominates () =
  let a = { Pareto.time_s = 1.0; power_mw = 1.0; area_um2 = 1.0 } in
  let b = { Pareto.time_s = 1.0; power_mw = 2.0; area_um2 = 1.0 } in
  Alcotest.(check bool) "a dominates b" true (Pareto.dominates a b);
  Alcotest.(check bool) "b does not dominate a" false (Pareto.dominates b a);
  Alcotest.(check bool) "no self-domination" false (Pareto.dominates a a)

(* --- exploration: cache hits bit-identical, resume ----------------- *)

let test_cache_hit_bit_identity () =
  Test_store_shard.with_temp_dir (fun path ->
      let store = Store_shard.open_ path in
      let fresh = Dse.run ~store ~target:tiny_target ~strategy:Dse.Exhaustive tiny_spaces in
      Store_shard.close store;
      Alcotest.(check int) "first run simulates all" fresh.Dse.evaluated fresh.Dse.simulated;
      let store2 = Store_shard.open_ path in
      let warm = Dse.run ~store:store2 ~target:tiny_target ~strategy:Dse.Exhaustive tiny_spaces in
      Store_shard.close store2;
      Alcotest.(check int) "second run simulates nothing" 0 warm.Dse.simulated;
      Alcotest.(check int) "all hits" fresh.Dse.evaluated warm.Dse.cache_hits;
      Alcotest.(check bool) "cached measurements bit-identical" true
        (fresh.Dse.measurements = warm.Dse.measurements))

let test_resume_after_truncation () =
  Test_store_shard.with_temp_dir (fun path ->
      let store = Store_shard.open_ path in
      let fresh = Dse.run ~store ~target:tiny_target ~strategy:Dse.Exhaustive tiny_spaces in
      Store_shard.close store;
      let n = fresh.Dse.evaluated in
      (* kill the tail mid-line: the resumed sweep re-simulates exactly
         the lost point and lands on identical measurements *)
      let full = In_channel.with_open_bin (Test_store_shard.lines_of path) In_channel.input_all in
      Out_channel.with_open_bin (Test_store_shard.lines_of path) (fun oc ->
          Out_channel.output_string oc (String.sub full 0 (String.length full - 23)));
      let store2 = Store_shard.open_ path in
      Alcotest.(check bool) "tail dropped" true (Store_shard.repaired_bytes store2 > 0);
      Alcotest.(check int) "one point lost" (n - 1) (Store_shard.size store2);
      let resumed = Dse.run ~store:store2 ~target:tiny_target ~strategy:Dse.Exhaustive tiny_spaces in
      Store_shard.close store2;
      Alcotest.(check int) "only the lost point re-simulated" 1 resumed.Dse.simulated;
      Alcotest.(check int) "rest from cache" (n - 1) resumed.Dse.cache_hits;
      Alcotest.(check bool) "resume equals fresh" true
        (fresh.Dse.measurements = resumed.Dse.measurements))

(* --- exploration: interpret-once / simulate-many ------------------- *)

let ff_spaces =
  [ Space.create ~derive:Space.spm_balanced [ Space.Read_ports [ 2; 4 ] ] ]

let test_fast_forward_shares_snapshot () =
  Test_store_shard.with_temp_dir (fun path ->
      let store = Store_shard.open_ path in
      let plain = Dse.run ~store ~target:tiny_target ~strategy:Dse.Exhaustive ff_spaces in
      Alcotest.(check int) "plain sweep has no snapshots" 0 plain.Dse.snapshots;
      let ff =
        Dse.run ~store ~invocations:2 ~fast_forward:1 ~target:tiny_target
          ~strategy:Dse.Exhaustive ff_spaces
      in
      Store_shard.close store;
      Alcotest.(check int) "two design points simulated" 2 ff.Dse.simulated;
      Alcotest.(check int) "one shared warm-up snapshot" 1 ff.Dse.snapshots;
      (* plain results are already in the store, but fast-forwarded
         measurements carry their own fingerprint identity *)
      Alcotest.(check int) "no collision with plain results" 0 ff.Dse.cache_hits;
      List.iter
        (fun (m : M.t) ->
          Alcotest.(check bool) "correct" true m.M.correct;
          (* each fast-forwarded point equals a by-hand warm-up + restore *)
          let config = Point.to_config m.M.point in
          let w = tiny_target.Dse.build m.M.point in
          let from = Salam.warm_up ~config ~invocations:1 w in
          let r = Salam.simulate ~config ~invocations:2 ~from w in
          Alcotest.(check int64) "cycles match by-hand fast-forward" r.Salam.cycles m.M.cycles)
        ff.Dse.measurements;
      (* the warm re-run answers wholly from the store: no simulation,
         so no warm-up either *)
      let store2 = Store_shard.open_ path in
      let warm =
        Dse.run ~store:store2 ~invocations:2 ~fast_forward:1 ~target:tiny_target
          ~strategy:Dse.Exhaustive ff_spaces
      in
      Store_shard.close store2;
      Alcotest.(check int) "warm ff run simulates nothing" 0 warm.Dse.simulated;
      Alcotest.(check int) "warm ff run takes no snapshot" 0 warm.Dse.snapshots;
      Alcotest.(check bool) "ff measurements round-trip the store" true
        (ff.Dse.measurements = warm.Dse.measurements))

(* the warm-ups of a batch run across the sweep's domains: two kernels
   over two memory kinds give the same measurements and the same
   snapshot count on one domain as on two *)
let test_fast_forward_domains () =
  let common = [ Space.Unroll [ 1; 2 ] ] in
  let spaces =
    [
      Space.create ~derive:Space.spm_balanced
        (Space.Memory [ Point.Spm ] :: Space.Read_ports [ 2; 4 ] :: common);
      Space.create (Space.Memory [ Point.Dram ] :: common);
    ]
  in
  let sweep domains =
    Dse.run ~domains ~invocations:2 ~fast_forward:1 ~target:tiny_target ~strategy:Dse.Exhaustive
      spaces
  in
  let one = sweep 1 and two = sweep 2 in
  Alcotest.(check int) "one warm-up per kernel and memory kind" 4 one.Dse.snapshots;
  Alcotest.(check int) "same snapshot count" one.Dse.snapshots two.Dse.snapshots;
  Alcotest.(check int) "every point simulated" 6 two.Dse.simulated;
  Alcotest.(check bool) "same measurements" true (one.Dse.measurements = two.Dse.measurements)

let test_fast_forward_validation () =
  Alcotest.check_raises "invocations < 1"
    (Invalid_argument "Explore.run: invocations must be at least 1") (fun () ->
      ignore (Dse.run ~invocations:0 ~target:tiny_target ~strategy:Dse.Exhaustive ff_spaces));
  Alcotest.check_raises "roadmark outside the schedule"
    (Invalid_argument "Explore.run: fast_forward must satisfy 0 <= roadmark < invocations")
    (fun () ->
      ignore (Dse.run ~fast_forward:1 ~target:tiny_target ~strategy:Dse.Exhaustive ff_spaces))

(* --- the point check and the measure step ----------------------- *)

let test_check_names_the_knob () =
  let spm = Point.default in
  let cache = { Point.default with Point.memory = Point.Cache; cache_bytes = 512 } in
  let refused target p key value =
    match Dse.check target (Point.canonical p) with
    | Ok () -> Alcotest.failf "%s=%s accepted" key value
    | Error (k, msg) ->
        Alcotest.(check string) "offending key" key k;
        let named = key ^ "=" ^ value in
        Alcotest.(check bool)
          (Printf.sprintf "%S names %s" msg named)
          true
          (String.length msg >= String.length named
          && String.sub msg 0 (String.length named) = named)
  in
  let accepted target p =
    match Dse.check target (Point.canonical p) with
    | Ok () -> ()
    | Error (_, msg) -> Alcotest.failf "%s refused: %s" (Point.to_string p) msg
  in
  accepted tiny_target spm;
  accepted tiny_target cache;
  accepted tiny_target { Point.default with Point.memory = Point.Dram };
  (* the knobs a memory kind ignores are canonicalised away first *)
  accepted tiny_target { cache with Point.read_ports = 0; banks = 0 };
  refused tiny_target { spm with Point.read_ports = 0 } "read_ports" "0";
  refused tiny_target { spm with Point.write_ports = 0 } "write_ports" "0";
  refused tiny_target { spm with Point.banks = 0 } "banks" "0";
  List.iter
    (fun bytes ->
      refused tiny_target { cache with Point.cache_bytes = bytes } "cache_bytes"
        (string_of_int bytes))
    [ 0; 48; 100; -256 ];
  refused tiny_target { spm with Point.clock_mhz = 0. } "clock_mhz" "0";
  refused tiny_target { spm with Point.clock_mhz = Float.nan } "clock_mhz" "nan";
  refused tiny_target { spm with Point.fu_limit = -1 } "fu_limit" "-1";
  (* an unroll factor of 0 lowers as 1, and one past the 8 iterations
     unrolls fully as 8 does: the same design under another fingerprint;
     3 runs past the loop's end *)
  accepted tiny_target { spm with Point.unroll = 8; junroll = 4 };
  refused tiny_target { spm with Point.unroll = 0 } "unroll" "0";
  refused tiny_target { spm with Point.junroll = 0 } "junroll" "0";
  refused tiny_target { spm with Point.unroll = 16 } "unroll" "16";
  refused tiny_target { spm with Point.junroll = 3 } "junroll" "3";
  let stencil =
    match Dse.suite_target "stencil2d" with Ok t -> t | Error e -> Alcotest.fail e
  in
  accepted stencil spm;
  refused stencil { spm with Point.unroll = 2 } "unroll" "2";
  refused stencil { spm with Point.junroll = 4 } "junroll" "4";
  (* a gemm of one iteration still has unroll loops: its refusal is
     about the trip count, not about the target *)
  (match Dse.check (Dse.gemm_target ~n:1 ()) { spm with Point.unroll = 2 } with
  | Error ("unroll", msg) ->
      Alcotest.(check string) "n=1 gemm" "unroll=2: must divide the loop's 1 iterations" msg
  | _ -> Alcotest.fail "unroll=2 on a 1x1 gemm must be refused as unroll");
  (match Dse.check tiny_target { spm with Point.hw_db = "0123456789abcdef" } with
  | Error ("hw_db", _) -> ()
  | _ -> Alcotest.fail "an unloaded database must be refused as hw_db");
  (* the sweep refuses the space before it simulates anything *)
  let store = Store_shard.in_memory () in
  Alcotest.check_raises "Explore.run checks every point"
    (Dse.Invalid_point ("unroll", "unroll=0: must be at least 1")) (fun () ->
      ignore
        (Dse.run ~store ~target:tiny_target ~strategy:Dse.Exhaustive
           [ Space.create [ Space.Unroll [ 1; 0 ] ] ]));
  Alcotest.(check int) "nothing simulated" 0 (Store_shard.size store)

(* salam_dse refuses an out-of-range flag before it simulates anything,
   naming the flag and exiting 1 rather than ending in an internal
   error. An unset unroll axis takes the target's own, so the defaults
   fit a gemm of 8 iterations and a suite workload alike. *)
let test_cli_refuses_out_of_range_flags () =
  let refused ?(n = "8") flag args =
    let argv =
      "salam_dse" :: "run" :: "--workload" :: "gemm" :: "--gemm-n" :: n :: "--quiet" :: args
    in
    let ((out, _, err) as proc) =
      Unix.open_process_args_full (bin "salam_dse") (Array.of_list argv)
        (Unix.environment ())
    in
    let stdout = In_channel.input_all out in
    let stderr = In_channel.input_all err in
    let cmd = String.concat " " argv in
    Alcotest.(check bool) (cmd ^ " exits 1") true (Unix.close_process_full proc = Unix.WEXITED 1);
    Alcotest.(check string) (cmd ^ " prints no report") "" stdout;
    let starts_with prefix =
      String.length stderr >= String.length prefix
      && String.sub stderr 0 (String.length prefix) = prefix
    in
    Alcotest.(check bool) (Printf.sprintf "%S names %s" stderr flag) true (starts_with (flag ^ ": "))
  in
  refused "--unroll" [ "--unroll"; "16" ];
  (* a dimension below 1 is refused before an unroll default is derived
     from it *)
  refused ~n:"0" "--gemm-n" [];
  let accepted argv =
    let ic =
      Unix.open_process_args_in (bin "salam_dse")
        (Array.of_list ("salam_dse" :: "run" :: argv @ [ "--ports"; "2"; "--fu"; "0"; "--quiet" ]))
    in
    let out = In_channel.input_all ic in
    let cmd = String.concat " " argv in
    let contains sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length out && (String.sub out i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (cmd ^ " exits 0") true (Unix.close_process_in ic = Unix.WEXITED 0);
    Alcotest.(check bool) (cmd ^ " simulates one point") true
      (contains "evaluated=1")
  in
  accepted [ "--workload"; "gemm"; "--gemm-n"; "8" ];
  accepted [ "--workload"; "stencil2d" ];
  let unrolled = [ "--unroll"; "1"; "--junroll"; "1" ] in
  refused "--ports" (unrolled @ [ "--ports"; "0" ]);
  refused "--cache-size" (unrolled @ [ "--mem"; "cache"; "--cache-size"; "100" ]);
  refused "--clock" (unrolled @ [ "--clock"; "0" ])

(* Run a built binary with [argv]; its exit status, stdout and stderr. *)
let run_cli ?(env = []) exe argv =
  (* each [NAME=value] of [env] replaces the variable of that name *)
  let name v = List.hd (String.split_on_char '=' v) in
  let inherited =
    List.filter
      (fun v -> not (List.exists (fun e -> name e = name v) env))
      (Array.to_list (Unix.environment ()))
  in
  let ((out, _, err) as proc) =
    Unix.open_process_args_full exe (Array.of_list argv) (Array.of_list (env @ inherited))
  in
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  (Unix.close_process_full proc, stdout, stderr)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* A refused knob ends in exit 1, no output and a message opening with
   the flag's name, not in an exception escaping to Cmdliner (exit 125). *)
let check_refused ?env exe argv flag =
  let status, stdout, stderr = run_cli ?env exe argv in
  let cmd = String.concat " " argv in
  Alcotest.(check bool) (cmd ^ " exits 1") true (status = Unix.WEXITED 1);
  Alcotest.(check string) (cmd ^ " prints no result") "" stdout;
  Alcotest.(check bool)
    (Printf.sprintf "%S names %s" stderr flag)
    true
    (starts_with (flag ^ ": ") stderr)

(* salam_sim runs the same range check before it builds anything, and
   refuses a trace flag without --trace and a trace file it cannot open
   before anything is simulated; an unknown --format is a usage error
   (Cmdliner's exit 124) *)
let test_sim_cli_refuses_out_of_range_flags () =
  let exe = (bin "salam_sim") in
  let argv args = "salam_sim" :: "run" :: "gemm" :: args in
  let refused flag args = check_refused exe (argv args) flag in
  refused "--clock" [ "--clock"; "0" ];
  refused "--ports" [ "--ports"; "0" ];
  refused "--write-ports" [ "--write-ports"; "0" ];
  refused "--banks" [ "--banks"; "0" ];
  refused "--cache-size" [ "--memory"; "cache"; "--cache-size"; "100" ];
  refused "--cache-size" [ "--memory"; "cache"; "--cache-size"; "0" ];
  refused "--fu" [ "--fu=-1" ];
  refused "--format" [ "--format"; "stats" ];
  refused "--category" [ "--category"; "cache.miss" ];
  refused "--component" [ "--component"; "l1" ];
  refused "--from-tick" [ "--from-tick"; "100" ];
  refused "--to-tick" [ "--to-tick"; "100" ];
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "salam-no-such-dir/trace" in
  refused "--trace" [ "--trace"; missing ];
  let _, _, stderr = run_cli exe (argv [ "--trace"; missing ]) in
  Alcotest.(check bool)
    (Printf.sprintf "%S names %s" stderr missing)
    true
    (Test_store_shard.contains stderr missing);
  let status, stdout, stderr = run_cli exe (argv [ "--format"; "xml" ]) in
  Alcotest.(check bool) "--format xml exits 124" true (status = Unix.WEXITED 124);
  Alcotest.(check string) "--format xml simulates nothing" "" stdout;
  Alcotest.(check bool)
    (Printf.sprintf "%S names --format" stderr)
    true
    (Test_store_shard.contains stderr "--format")

(* SALAM_DOMAINS is read when a sweep starts, not when the program
   loads: a bad value is refused like a flag, naming the variable and
   its value, and --version and --help never read it. *)
let check_bad_domains exe argv =
  List.iter
    (fun value ->
      let env = [ "SALAM_DOMAINS=" ^ value ] in
      check_refused ~env exe argv "SALAM_DOMAINS";
      let _, _, stderr = run_cli ~env exe argv in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the value %S" stderr value)
        true
        (Test_store_shard.contains stderr (Printf.sprintf "%S" value));
      List.iter
        (fun flag ->
          let status, _, _ = run_cli ~env exe [ Filename.basename exe; flag ] in
          Alcotest.(check bool)
            (Printf.sprintf "SALAM_DOMAINS=%s %s exits 0" value flag)
            true (status = Unix.WEXITED 0))
        [ "--version"; "--help=plain" ])
    [ "0"; "-3"; "lots" ]

let test_cli_refuses_bad_domains () =
  check_bad_domains (bin "salam_dse")
    [
      "salam_dse"; "run"; "--workload"; "gemm"; "--gemm-n"; "8"; "--unroll"; "2"; "--junroll";
      "2";
    ]

(* run --help shows each list flag's default as the list its parser
   reads, not a placeholder *)
let test_cli_help_shows_list_defaults () =
  let status, stdout, _ = run_cli (bin "salam_dse") [ "salam_dse"; "run"; "--help=plain" ] in
  Alcotest.(check bool) "--help=plain exits 0" true (status = Unix.WEXITED 0);
  List.iter
    (fun shown ->
      Alcotest.(check bool) shown true (Test_store_shard.contains stdout shown))
    [
      "--fu=LIST (absent=0,2,4,8)";
      "--ports=LIST (absent=1,2,4,8,16)";
      "--cache-size=LIST (absent=512,2048,8192)";
      "--clock=LIST (absent=500)";
      "--mem=KINDS (absent=spm)";
    ]

(* The daemon's workers and a local sweep measure through the same
   step: one job measured alone equals the sweep's measurement, and two
   timing configurations of one kernel share one snapshot key. *)
let test_measure_step_shared () =
  let plan = { Dse.target = tiny_target; invocations = 2; fast_forward = Some 1 } in
  let points = Space.enumerate_all ff_spaces in
  let swept =
    Dse.run ~invocations:2 ~fast_forward:1 ~target:tiny_target ~strategy:Dse.Exhaustive
      ff_spaces
  in
  let keys = ref [] in
  let memo = Hashtbl.create 4 in
  let snapshot key warm_up =
    keys := key :: !keys;
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
        let s = warm_up () in
        Hashtbl.add memo key s;
        s
  in
  let jobs = List.map (Dse.job plan) points in
  Alcotest.(check (list int64)) "a job carries the lookup fingerprint"
    (List.map (Dse.fingerprint plan) points)
    (List.map Dse.job_fp jobs);
  let measured = List.concat_map (fun j -> fst (Dse.measure ~domains:1 ~snapshot [ j ])) jobs in
  Alcotest.(check (list string)) "one job at a time = the sweep"
    (List.map M.to_line swept.Dse.measurements)
    (List.map M.to_line measured);
  Alcotest.(check int) "asked once per job" 2 (List.length !keys);
  Alcotest.(check int) "one snapshot key for both timing configs" 1 (Hashtbl.length memo);
  Alcotest.(check int) "no job, no simulation" 0
    (List.length (fst (Dse.measure ~snapshot:(fun _ _ -> Alcotest.fail "no snapshot wanted") [])))

(* The derivation oracle: a measurement answered from a looser FU cap's
   run is byte for byte the one a fresh simulation of its point gives,
   on SPM, cache and DRAM, in both engine modes, plain and
   fast-forwarded. Every ordered pair of caps is tried, not only the
   loose-to-tight ones the sweep asks for, so a derivation towards a
   looser cap must be refused or exact too. The grid holds both
   outcomes: caps the run never reached (derived) and caps that bind or
   loosen (refused). The sweep itself must then derive some points and
   match fresh runs on all of them. *)
let test_derivation_oracle () =
  let caps = [ 0; 1; 2; 4; 8 ] in
  let point memory fu =
    Point.canonical
      { Point.default with Point.memory; cache_bytes = 1024; unroll = 2; junroll = 2; fu_limit = fu }
  in
  let derived = ref 0 and refused = ref 0 in
  let schedules = [ (1, None); (2, Some 1) ] in
  List.iter
    (fun mode ->
      List.iter
        (fun (invocations, fast_forward) ->
          List.iter
            (fun memory ->
              let w = tiny_target.Dse.build (point memory 0) in
              let workload =
                Dse.identity ~workload:(tiny_target.Dse.workload_id (point memory 0)) ~invocations
                  ~fast_forward
              in
              let config fu =
                {
                  (Point.to_config (point memory fu)) with
                  Salam.Config.engine = { Salam_engine.Engine.default_config with mode };
                }
              in
              let from =
                Option.map (fun k -> Salam.warm_up ~config:(config 0) ~invocations:k w) fast_forward
              in
              let line fu r = M.to_line (M.of_result ~workload ~point:(point memory fu) r) in
              let runs =
                List.map (fun fu -> (fu, Salam.simulate ~config:(config fu) ~invocations ?from w)) caps
              in
              List.iter
                (fun (from_fu, run) ->
                  List.iter
                    (fun (fu, fresh) ->
                      if fu <> from_fu then
                        match Salam.derive ~config:(config fu) w run with
                        | Some r ->
                            incr derived;
                            Alcotest.(check string)
                              (Printf.sprintf "fu=%d from fu=%d, %s" fu from_fu workload)
                              (line fu fresh) (line fu r)
                        | None -> incr refused)
                    runs)
                runs)
            [ Point.Spm; Point.Cache; Point.Dram ])
        schedules)
    [ Salam_engine.Engine.Compiled; Salam_engine.Engine.Dynamic ];
  Alcotest.(check bool) (Printf.sprintf "%d derived" !derived) true (!derived > 0);
  Alcotest.(check bool) (Printf.sprintf "%d refused" !refused) true (!refused > 0);
  List.iter
    (fun (invocations, fast_forward) ->
      let report =
        Dse.run ~invocations ?fast_forward ~target:tiny_target ~strategy:Dse.Exhaustive
          (List.map
             (fun memory ->
               Space.create ~base:(point memory 0)
                 [ Space.Memory [ memory ]; Space.Fu_limit caps ])
             [ Point.Spm; Point.Cache; Point.Dram ])
      in
      let plan = { Dse.target = tiny_target; invocations; fast_forward } in
      Alcotest.(check bool)
        (Printf.sprintf "sweep derived %d of %d" report.Dse.derived report.Dse.simulated)
        true
        (report.Dse.derived > 0 && report.Dse.derived < report.Dse.simulated - 3);
      List.iter
        (fun m ->
          let fresh, _ =
            Dse.measure ~domains:1
              ~snapshot:(fun _ warm_up -> warm_up ())
              [ Dse.job plan m.M.point ]
          in
          Alcotest.(check (list string))
            (Point.to_string m.M.point)
            [ M.to_line m ] (List.map M.to_line fresh))
        report.Dse.measurements)
    schedules

let test_random_strategy_deterministic () =
  let strategy = Dse.Random { samples = 2; seed = 7L } in
  let r1 = Dse.run ~target:tiny_target ~strategy tiny_spaces in
  let r2 = Dse.run ~target:tiny_target ~strategy tiny_spaces in
  Alcotest.(check int) "sample count" 2 r1.Dse.evaluated;
  Alcotest.(check bool) "same seed, same sample" true
    (List.map (fun m -> m.M.fp) r1.Dse.measurements
    = List.map (fun m -> m.M.fp) r2.Dse.measurements)

let suite =
  [
    Alcotest.test_case "fingerprint ignores axis order" `Quick test_fingerprint_axis_order;
    Alcotest.test_case "fingerprint canonicalisation" `Quick test_fingerprint_canonical;
    Alcotest.test_case "fingerprint hex round-trip" `Quick test_fingerprint_hex;
    Alcotest.test_case "fingerprints pinned" `Quick test_fingerprints_pinned;
    Alcotest.test_case "space union dedup" `Quick test_enumerate_dedup;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects garbage" `Quick test_jsonl_rejects_garbage;
    Alcotest.test_case "jsonl \\u escapes" `Quick test_jsonl_unicode_escapes;
    Alcotest.test_case "measurement line round-trip" `Quick test_measurement_roundtrip;
    Alcotest.test_case "store persists and dedups" `Quick test_store_persist_and_dedup;
    Alcotest.test_case "store repairs truncated tail" `Quick test_store_truncated_tail;
    Alcotest.test_case "store refuses mid-file corruption" `Quick test_store_mid_file_corruption_fails;
    Alcotest.test_case "pareto partition" `Quick test_pareto_partition;
    Alcotest.test_case "pareto dominance" `Quick test_pareto_dominates;
    Alcotest.test_case "cache hits bit-identical" `Quick test_cache_hit_bit_identity;
    Alcotest.test_case "resume after truncated store" `Quick test_resume_after_truncation;
    Alcotest.test_case "fast-forward shares one snapshot" `Quick test_fast_forward_shares_snapshot;
    Alcotest.test_case "fast-forward warm-ups across domains" `Quick test_fast_forward_domains;
    Alcotest.test_case "fast-forward argument validation" `Quick test_fast_forward_validation;
    Alcotest.test_case "point check names the knob" `Quick test_check_names_the_knob;
    Alcotest.test_case "salam_dse names a refused flag" `Quick
      test_cli_refuses_out_of_range_flags;
    Alcotest.test_case "salam_sim names a refused flag" `Quick
      test_sim_cli_refuses_out_of_range_flags;
    Alcotest.test_case "salam_dse refuses a bad SALAM_DOMAINS" `Quick
      test_cli_refuses_bad_domains;
    Alcotest.test_case "salam_dse run --help shows list defaults" `Quick
      test_cli_help_shows_list_defaults;
    Alcotest.test_case "one measure step for sweep and daemon" `Quick test_measure_step_shared;
    Alcotest.test_case "derived = simulated, byte for byte" `Quick test_derivation_oracle;
    Alcotest.test_case "random strategy deterministic" `Quick test_random_strategy_deterministic;
  ]
