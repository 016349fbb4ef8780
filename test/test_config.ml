(* Tests for the salam_config subsystem: the characterization-table
   codec (round-trip, strict rejections), byte-identity of the shipped
   40 nm database with the compiled-in constants, registry resolution,
   hardware identity in DSE fingerprints/stores, and the oracle under a
   non-default cycle time. *)

module C = Salam_config
module Fu = Salam_hw.Fu
module Profile = Salam_hw.Profile
module Point = Salam_dse.Point
module Store_shard = Salam_dse.Store_shard
module M = Salam_dse.Measurement

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* first-occurrence substring replacement; fails the test when the
   needle is absent so edits can't silently test nothing *)
let replace ~from ~into s =
  let fl = String.length from and sl = String.length s in
  let rec find i =
    if i + fl > sl then Alcotest.failf "substring %S not found" from
    else if String.sub s i fl = from then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ into ^ String.sub s (i + fl) (sl - i - fl)

let contains s sub =
  let sl = String.length sub and l = String.length s in
  let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
  go 0

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  | Error _ -> ()

(* --- codec --------------------------------------------------------- *)

let test_round_trip () =
  let text = C.render C.builtin in
  let db = ok (C.parse text) in
  Alcotest.(check string) "render(parse(render)) is identity" text (C.render db);
  Alcotest.(check string) "hash stable" C.builtin_hash (C.hash db)

(* The canonical renderer's float search as it was first written, kept
   here as the reference the faster [render_float] must equal byte for
   byte: the database's hash is taken over these bytes. *)
let reference_render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else begin
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 1
  end

(* random bit patterns cover every exponent and mostly need 17 digits;
   the rest aim at the edges: subnormals, signed zeros, infinities,
   nans, the integer cut-off, and short decimals with their neighbours
   (a normal float's search starts at 15 digits and must still find
   "0.0035") *)
let gen_render_float =
  let open QCheck.Gen in
  let sign = map (fun neg -> if neg then -1.0 else 1.0) bool in
  oneof
    [
      map Int64.float_of_bits ui64;
      map2
        (fun s bits -> s *. Int64.float_of_bits (Int64.logand bits 0x000F_FFFF_FFFF_FFFFL))
        sign ui64;
      oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; -.nan; Float.min_float; Float.max_float ];
      map2 (fun s d -> s *. (1e15 +. float_of_int d)) sign (int_range (-64) 64);
      map2 (fun s d -> s *. (1e15 +. (float_of_int d /. 8.0))) sign (int_range (-64) 64);
      map3
        (fun s (m, e) step ->
          let f = s *. float_of_string (Printf.sprintf "%de%d" m e) in
          match step with 0 -> f | 1 -> Float.succ f | _ -> Float.pred f)
        sign
        (pair (int_range 1 99_999) (int_range (-320) 300))
        (int_range 0 2);
    ]

let qcheck_render_float_reference =
  QCheck.Test.make ~name:"render_float = the sprintf \"%.*g\" search" ~count:2000
    (QCheck.make ~print:(fun f -> Printf.sprintf "%h" f) gen_render_float)
    (fun f ->
      let got = C.render_float f and want = reference_render_float f in
      String.equal got want
      || QCheck.Test.fail_reportf "render_float %h = %S, reference %S" f got want)

(* every number the shipped table carries, field values and cycle times *)
let test_render_float_shipped () =
  let text = In_channel.with_open_bin (Test_dse.built "share/salam-40nm.db") In_channel.input_all in
  let floats =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter_map (fun tok ->
           let v =
             match String.index_opt tok '=' with
             | Some i -> String.sub tok (i + 1) (String.length tok - i - 1)
             | None -> tok
           in
           float_of_string_opt v)
  in
  Alcotest.(check bool) "the table carries floats" true (List.length floats > 500);
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "render_float %h" f) (reference_render_float f)
        (C.render_float f))
    floats

(* the built-in table is registered under the hash computed at start-up,
   and that hash is its content's *)
let test_builtin_registered_once () =
  Alcotest.(check string) "hash builtin = builtin_hash" (C.hash C.builtin) C.builtin_hash;
  (match C.find_db C.builtin_hash with
  | Some db -> Alcotest.(check bool) "find_db builtin_hash is builtin" true (db == C.builtin)
  | None -> Alcotest.fail "find_db builtin_hash found nothing");
  Alcotest.(check int) "registered lists builtin once" 1
    (List.length (List.filter (fun (h, _) -> h = C.builtin_hash) (C.registered ())))

let test_default_profile_identity () =
  (* the 2 ns row of the shipped database IS the compiled-in profile *)
  let p = ok (C.db_profile C.builtin ~cycle_time_ns:2.0) in
  Alcotest.(check bool) "db@2ns = default_40nm" true (Profile.equal p Profile.default_40nm)

let drop_line ~matching text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (matching l))
  |> String.concat "\n"

let test_rejections () =
  let text = C.render C.builtin in
  (* truncation: removing any record breaks the end count *)
  expect_error "dropped record"
    (C.parse (drop_line ~matching:(fun l -> String.length l > 3 && String.sub l 0 4 = "reg ") text));
  (* missing end line entirely *)
  expect_error "missing end"
    (C.parse (drop_line ~matching:(fun l -> String.length l > 3 && String.sub l 0 4 = "end ") text));
  (* duplicate record *)
  let dup =
    String.split_on_char '\n' text
    |> List.concat_map (fun l ->
           if String.length l > 13 && String.sub l 0 13 = "fu int_adder " then [ l; l ]
           else [ l ])
    |> String.concat "\n"
  in
  expect_error "duplicate record" (C.parse dup);
  (* unknown functional unit *)
  expect_error "unknown fu"
    (C.parse (replace ~from:"fu int_adder 1 " ~into:"fu warp_core 1 " text));
  (* malformed number *)
  expect_error "malformed number"
    (C.parse (replace ~from:"latency=2" ~into:"latency=two" text));
  (* undeclared cycle time *)
  expect_error "undeclared cycle time"
    (C.parse (replace ~from:"fu int_adder 1 " ~into:"fu int_adder 7 " text));
  (* content after the end record *)
  expect_error "content after end" (C.parse (text ^ "name sneaky\n"));
  (* wrong version header *)
  expect_error "wrong version"
    (C.parse (replace ~from:"salam-hwdb 1" ~into:"salam-hwdb 9" text))

let test_lookup_errors () =
  (match C.db_profile C.builtin ~cycle_time_ns:2.5 with
  | Ok _ -> Alcotest.fail "2.5ns should not resolve"
  | Error e ->
      Alcotest.(check bool) "error lists available cycle times" true
        (contains e "available"));
  match C.resolve ~hw_db:"0000000000000000" ~node:40 ~cycle_time_ns:2.0 with
  | Ok _ -> Alcotest.fail "unknown hash should not resolve"
  | Error _ -> ()

let test_derived_latency_monotone () =
  (* slower cycle times never need more cycles per op *)
  let cts = C.cycle_times C.builtin in
  List.iter
    (fun cls ->
      let lats =
        List.map
          (fun ct ->
            (Profile.spec (ok (C.db_profile C.builtin ~cycle_time_ns:ct)) cls).Profile.latency)
          cts
      in
      ignore
        (List.fold_left
           (fun prev l ->
             if l > prev then
               Alcotest.failf "%s latency not monotone across cycle times" (Fu.to_string cls);
             l)
           max_int lats))
    Fu.all

(* The cycle-time sweep of bench/main.exe -- ct, pinned: the Fig 13
   gemm16 point (u16/j8, SPM) under every row of the shipped database.
   A timing change at any row fails here, the way golden traces do. *)
let test_gemm16_cycles_per_row () =
  let module Dse = Salam_dse.Explore in
  let module Space = Salam_dse.Space in
  let base = { Point.default with Point.unroll = 16; junroll = 8 } in
  let report =
    Dse.run ~domains:1
      ~target:(Dse.gemm_target ~n:16 ())
      ~strategy:Dse.Exhaustive
      [
        Space.create ~base ~derive:Space.spm_balanced
          [ Space.Cycle_time_ns (C.cycle_times C.builtin) ];
      ]
  in
  let got =
    List.sort compare
      (List.map
         (fun (m : M.t) -> (m.M.point.Point.cycle_time_ns, m.M.cycles))
         report.Dse.measurements)
  in
  Alcotest.(check (list (pair (float 0.0) int64)))
    "gemm16 cycles per cycle-time row"
    [ (1., 6265L); (2., 4773L); (3., 4337L); (4., 4337L); (5., 4337L); (6., 4187L); (10., 4187L) ]
    got

(* --- hardware identity in points and stores ------------------------ *)

let test_fingerprint_distinct_profiles () =
  (* same knobs, same clock, different characterization: must be
     different cache keys everywhere *)
  let p2 = Point.default in
  let p5 = { Point.default with Point.cycle_time_ns = 5.0 } in
  Alcotest.(check bool) "profiles split the fingerprint" false
    (Int64.equal (Point.fingerprint ~workload:"w" p2) (Point.fingerprint ~workload:"w" p5));
  let other_db = { Point.default with Point.hw_db = "beefbeefbeefbeef" } in
  Alcotest.(check bool) "database hash splits the fingerprint" false
    (Int64.equal
       (Point.fingerprint ~workload:"w" Point.default)
       (Point.fingerprint ~workload:"w" other_db))

let mk_measurement point cycles =
  {
    M.fp = Point.fingerprint ~workload:"w" point;
    workload = "w";
    point;
    cycles;
    seconds = 1e-6;
    total_mw = 1.0;
    datapath_mw = 0.5;
    area_um2 = 100.0;
    correct = true;
    active_cycles = 10;
    issue_cycles = 8;
    stall_cycles = 2;
    stall_load_only = 1;
    stall_load_compute = 1;
    stall_load_store_compute = 0;
    stall_other = 0;
    cycles_with_load = 4;
    cycles_with_store = 2;
    cycles_with_load_and_store = 1;
    loads_issued = 4;
    stores_issued = 2;
    issued_fp = 3;
    issued_int = 5;
    issued_mem = 6;
    fmul_occupancy = 0.5;
    fmul_allocated = 1;
    spm_reads = 4;
    spm_writes = 2;
    cache_hits = 0;
    cache_misses = 0;
  }

let test_store_distinct_entries () =
  (* the cache-identity regression: two profiles at the same design
     point land as two separate store entries and answer separately *)
  let p2 = Point.default in
  let p5 = { Point.default with Point.cycle_time_ns = 5.0 } in
  let store = Store_shard.in_memory () in
  Store_shard.add store (mk_measurement p2 100L);
  Store_shard.add store (mk_measurement p5 60L);
  Alcotest.(check int) "two entries" 2 (Store_shard.size store);
  let got fp =
    match Store_shard.find store ~fp with
    | Some m -> m.M.cycles
    | None -> Alcotest.fail "entry missing"
  in
  Alcotest.(check int64) "2ns entry" 100L (got (Point.fingerprint ~workload:"w" p2));
  Alcotest.(check int64) "5ns entry" 60L (got (Point.fingerprint ~workload:"w" p5))

let test_point_codec_hw_fields () =
  let p =
    {
      Point.default with
      Point.cycle_time_ns = 5.0;
      clock_mhz = C.clock_mhz_of_cycle_time 5.0;
    }
  in
  (match Point.of_compact (Point.to_compact p) with
  | Ok p' -> Alcotest.(check bool) "compact round-trip" true (Point.compare p p' = 0)
  | Error e -> Alcotest.failf "of_compact: %s" e);
  (* a pre-database point (no hw identity) is a loud error, not a
     silent default *)
  let legacy =
    String.concat ","
      (List.filter
         (fun kv ->
           not
             (List.exists
                (fun k -> String.starts_with ~prefix:(k ^ "=") kv)
                [ "hw_db"; "node_nm"; "cycle_time_ns" ]))
         (String.split_on_char ',' (Point.to_compact p)))
  in
  match Point.of_compact legacy with
  | Ok _ -> Alcotest.fail "legacy fields should not decode"
  | Error _ -> ()

let test_measurement_codec_hw_fields () =
  let p = { Point.default with Point.cycle_time_ns = 5.0 } in
  let m = mk_measurement p 60L in
  match M.of_line (M.to_line m) with
  | Ok m' ->
      Alcotest.(check (float 0.0)) "cycle time survives the JSONL codec" 5.0
        m'.M.point.Point.cycle_time_ns;
      Alcotest.(check string) "db hash survives the JSONL codec" C.builtin_hash
        m'.M.point.Point.hw_db
  | Error e -> Alcotest.failf "of_line: %s" e

let test_to_config_resolves () =
  let p = { Point.default with Point.cycle_time_ns = 5.0; clock_mhz = 200.0 } in
  let cfg = Point.to_config p in
  Alcotest.(check string) "config carries the 5ns profile" "salam-40nm@5ns"
    cfg.Salam.Config.hw.Profile.profile_name;
  let bad = { Point.default with Point.hw_db = "beefbeefbeefbeef" } in
  match Point.to_config bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unresolvable hardware identity should raise"

(* --- oracle under a non-default cycle time -------------------------- *)

let gemm () =
  match Salam_workloads.Suite.by_name "gemm" with
  | Some w -> w
  | None -> Alcotest.fail "gemm workload missing"

(* the 5 ns characterization at the default 500 MHz clock *)
let config_5ns () =
  { Salam.Config.default with Salam.Config.hw = ok (C.profile ~node:40 ~cycle_time_ns:5.0) }

let test_oracle_5ns () =
  match Check_oracle.check_workload ~config:(config_5ns ()) (gemm ()) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "interp-vs-engine at 5ns: %s" (Check_oracle.failure_to_string f)

let test_modes_5ns () =
  match Check_oracle.check_modes ~config:(config_5ns ()) (gemm ()) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "compiled-vs-dynamic at 5ns: %s" (Check_oracle.failure_to_string f)

(* salam_sim elaborates its flags through [Point.to_config] and traces
   through its one [Salam.simulate] call. On each memory kind the CLI's
   cycles, total power and stats.txt equal an untraced library run of
   the matching point, whose clock the 5 ns cycle time pins to 200 MHz,
   and its text trace and event count equal a traced one. *)
let test_salam_sim_cli_matches_point () =
  let sim args =
    let ic =
      Unix.open_process_args_in (Test_dse.bin "salam_sim") (Array.of_list ("salam_sim" :: args))
    in
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "salam_sim %s failed" (String.concat " " args));
    String.split_on_char '\n' out
  in
  let field lines key =
    match List.find_opt (fun l -> String.starts_with ~prefix:key l) lines with
    | Some l ->
        let v = String.trim (List.nth (String.split_on_char ':' l) 1) in
        List.hd (String.split_on_char ' ' v)
    | None -> Alcotest.failf "salam_sim printed no %S line" key
  in
  let file = Filename.temp_file "salam_sim" ".trace" in
  let read () = In_channel.with_open_bin file In_channel.input_all in
  let library write =
    Out_channel.with_open_bin file write;
    read ()
  in
  List.iter
    (fun memory ->
      let name = Point.memory_kind_to_string memory in
      let args =
        [ "run"; "gemm"; "--memory"; name; "--fu"; "2"; "--cycle-time"; "5"; "--trace"; file ]
      in
      let lines = sim (args @ [ "--format"; "stats" ]) in
      let stats_txt = read () in
      let traced = sim (args @ [ "--format"; "text" ]) in
      let trace_txt = read () in
      let p =
        {
          Point.default with
          Point.memory;
          banks = 4;
          cache_bytes = 4096;
          fu_limit = 2;
          cycle_time_ns = 5.0;
          clock_mhz = 200.0;
        }
      in
      let config = Point.to_config p in
      let r = Salam.simulate ~config (gemm ()) in
      Alcotest.(check string) (name ^ " correct") "true" (field lines "correct");
      Alcotest.(check string) (name ^ " cycles") (Int64.to_string r.Salam.cycles)
        (field lines "cycles");
      Alcotest.(check string) (name ^ " total power")
        (Printf.sprintf "%.3f" (Salam.total_mw r.Salam.power))
        (field lines "total power");
      Alcotest.(check bool) (name ^ " stats.txt = library") true
        (stats_txt = library (fun oc -> Salam_obs.Trace.write_stats_txt oc r.Salam.sim_stats));
      let sink = Salam_obs.Trace.create () in
      ignore (Salam.simulate ~config ~trace:sink (gemm ()));
      Alcotest.(check string) (name ^ " trace events")
        (string_of_int (Salam_obs.Trace.count sink))
        (field traced "trace events");
      Alcotest.(check bool) (name ^ " text trace = library") true
        (trace_txt = library (fun oc -> Salam_obs.Trace.write_text oc sink)))
    [ Point.Spm; Point.Cache; Point.Dram ];
  Sys.remove file

(* Process start is one render and hash of the built-in table plus
   module initialisation: no CLI's [--version] collects or allocates
   past 75,000 words (the highest, salam_sim with its trace-category
   table, reads 60.5k; rendering the table a
   second time would read about 93k). The numbers are the runtime's own
   exit report. *)
let test_cli_startup_no_collection () =
  List.iter
    (fun name ->
      let status, _, report =
        Test_dse.run_cli ~env:[ "OCAMLRUNPARAM=v=0x400" ]
          (Test_dse.bin name)
          [ name; "--version" ]
      in
      Alcotest.(check bool) (name ^ " --version exits 0") true (status = Unix.WEXITED 0);
      let counter key =
        let prefix = key ^ ": " in
        match
          List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' report)
        with
        | Some l ->
            int_of_string
              (String.trim
                 (String.sub l (String.length prefix) (String.length l - String.length prefix)))
        | None -> Alcotest.failf "%s printed no %s in %S" name key report
      in
      Alcotest.(check int) (name ^ " minor collections") 0 (counter "minor_collections");
      Alcotest.(check int) (name ^ " major collections") 0 (counter "major_collections");
      let words = counter "allocated_words" in
      if words > 75_000 then
        Alcotest.failf "%s allocated %d words before exiting (ceiling 75,000)" name words)
    [ "salam_sim"; "salam_check"; "salam_trace"; "salam_dse"; "salam_served"; "salam_config" ]

let suite =
  [
    Alcotest.test_case "render/parse round-trip" `Quick test_round_trip;
    QCheck_alcotest.to_alcotest qcheck_render_float_reference;
    Alcotest.test_case "render_float = reference on the shipped table" `Quick
      test_render_float_shipped;
    Alcotest.test_case "builtin registered once under builtin_hash" `Quick
      test_builtin_registered_once;
    Alcotest.test_case "2ns row = compiled-in profile" `Quick test_default_profile_identity;
    Alcotest.test_case "strict parser rejections" `Quick test_rejections;
    Alcotest.test_case "lookup and resolve errors" `Quick test_lookup_errors;
    Alcotest.test_case "derived latencies monotone" `Quick test_derived_latency_monotone;
    Alcotest.test_case "gemm16 cycles per cycle-time row" `Quick test_gemm16_cycles_per_row;
    Alcotest.test_case "profiles split fingerprints" `Quick test_fingerprint_distinct_profiles;
    Alcotest.test_case "distinct store entries per profile" `Quick test_store_distinct_entries;
    Alcotest.test_case "point codec carries hw identity" `Quick test_point_codec_hw_fields;
    Alcotest.test_case "measurement codec carries hw identity" `Quick
      test_measurement_codec_hw_fields;
    Alcotest.test_case "to_config resolves the profile" `Quick test_to_config_resolves;
    Alcotest.test_case "oracle at 5ns" `Quick test_oracle_5ns;
    Alcotest.test_case "mode oracle at 5ns" `Quick test_modes_5ns;
    Alcotest.test_case "salam_sim CLI = Point.to_config" `Quick test_salam_sim_cli_matches_point;
    Alcotest.test_case "CLI start-up runs no collection" `Quick test_cli_startup_no_collection;
  ]
