(* Tests for the trace/observability layer: sink semantics (ring bound,
   category gating, canonical ordering), the text/JSON renderers, trace
   diffing, and the golden-trace regression suite itself. The golden
   files under golden/ are blessed with
   `dune exec bin/salam_trace.exe -- bless --dir test/golden`; these
   tests re-run each scenario and fail on the first divergent event, so
   any engine or memory timing change must either be reverted or
   re-blessed deliberately. *)

module Trace = Salam_obs.Trace

let check = Alcotest.check

let emit_n sink n =
  for k = 0 to n - 1 do
    Trace.emit sink ~tick:(Int64.of_int (k * 10)) ~comp:"c" ~cat:Trace.Spm_access
      ~detail:"read"
      [ ("k", Trace.I (Int64.of_int k)) ]
  done

(* --- sink semantics ----------------------------------------------------- *)

let test_ring_bound () =
  let sink = Trace.create ~ring:4 () in
  emit_n sink 10;
  check Alcotest.int "ring keeps last 4" 4 (Trace.count sink);
  check Alcotest.int "6 evicted" 6 (Trace.dropped sink);
  let ks =
    List.map (fun (e : Trace.event) -> List.assoc "k" e.Trace.args) (Trace.events sink)
  in
  check Alcotest.bool "last four events survive" true
    (ks = [ Trace.I 6L; Trace.I 7L; Trace.I 8L; Trace.I 9L ]);
  Trace.clear sink;
  check Alcotest.int "clear empties" 0 (Trace.count sink)

let test_category_gating () =
  let sink = Trace.create ~categories:[ Trace.Cache_miss ] () in
  check Alcotest.bool "wants cache.miss" true (Trace.wants sink Trace.Cache_miss);
  check Alcotest.bool "ignores cache.hit" false (Trace.wants sink Trace.Cache_hit);
  Trace.emit sink ~tick:0L ~comp:"c" ~cat:Trace.Cache_hit [];
  Trace.emit sink ~tick:0L ~comp:"c" ~cat:Trace.Cache_miss [];
  check Alcotest.int "only the wanted category recorded" 1 (Trace.count sink);
  (* without [~categories] a sink records every category *)
  let all = Trace.create () in
  List.iter
    (fun c ->
      check Alcotest.bool ("default wants " ^ Trace.category_to_string c) true (Trace.wants all c);
      Trace.emit all ~tick:0L ~comp:"c" ~cat:c [])
    Trace.all_categories;
  check Alcotest.int "default records one of each" (List.length Trace.all_categories)
    (Trace.count all)

let test_canonical_order () =
  let sink = Trace.create () in
  (* emitted out of tick order, as finalize_cycle does retroactively *)
  Trace.emit sink ~tick:20L ~comp:"b" ~cat:Trace.Engine_issue ~detail:"add" [];
  Trace.emit sink ~tick:10L ~comp:"a" ~cat:Trace.Engine_stall ~detail:"load"
    [ ("v", Trace.I 3L) ];
  Trace.emit sink ~tick:20L ~comp:"a" ~cat:Trace.Engine_writeback [];
  let lines = Trace.to_lines sink in
  check (Alcotest.list Alcotest.string) "sorted by tick, emission order ties"
    [ "10 a engine.stall load v=3"; "20 b engine.issue add"; "20 a engine.wb -" ]
    lines

let test_category_names_roundtrip () =
  List.iter
    (fun c ->
      match Trace.category_of_string (Trace.category_to_string c) with
      | Some c' when c' = c -> ()
      | _ -> Alcotest.failf "category %s does not round-trip" (Trace.category_to_string c))
    Trace.all_categories;
  check Alcotest.bool "unknown name rejected" true
    (Trace.category_of_string "bogus.cat" = None)

(* --- filters ------------------------------------------------------------ *)

let test_filters () =
  let sink = Trace.create () in
  Trace.emit sink ~tick:5L ~comp:"eng.gemm" ~cat:Trace.Engine_issue [];
  Trace.emit sink ~tick:15L ~comp:"eng.gemm" ~cat:Trace.Cache_miss [];
  Trace.emit sink ~tick:25L ~comp:"l1" ~cat:Trace.Cache_miss [];
  let by_cat = { Trace.no_filter with Trace.f_cats = Some [ Trace.Cache_miss ] } in
  check Alcotest.int "category filter" 2 (List.length (Trace.filtered ~filter:by_cat sink));
  let by_comp = { Trace.no_filter with Trace.f_comp = Some "gemm" } in
  check Alcotest.int "component substring" 2
    (List.length (Trace.filtered ~filter:by_comp sink));
  let by_window = { Trace.no_filter with Trace.f_from = Some 10L; f_to = Some 20L } in
  check Alcotest.int "tick window" 1 (List.length (Trace.filtered ~filter:by_window sink));
  check Alcotest.int "no filter keeps all" 3 (List.length (Trace.filtered sink))

(* --- diffing ------------------------------------------------------------ *)

let test_first_divergence () =
  let a = [ "1 x a.b -"; "2 x a.b -"; "3 x a.b -" ] in
  check Alcotest.bool "identical traces" true (Trace.first_divergence a a = None);
  (match Trace.first_divergence a [ "1 x a.b -"; "2 y a.b -"; "3 x a.b -" ] with
  | Some { Trace.at_line = 2; left = Some "2 x a.b -"; right = Some "2 y a.b -" } -> ()
  | _ -> Alcotest.fail "expected divergence at line 2");
  match Trace.first_divergence a [ "1 x a.b -" ] with
  | Some { Trace.at_line = 2; left = Some _; right = None } -> ()
  | _ -> Alcotest.fail "expected length mismatch at line 2"

(* --- renderers ---------------------------------------------------------- *)

let render_json events =
  let path = Filename.temp_file "salam_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_chrome_json oc events;
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let count_substring hay needle =
  let n = String.length needle in
  let rec go from acc =
    if from + n > String.length hay then acc
    else if String.sub hay from n = needle then go (from + 1) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let test_chrome_json_shape () =
  let sink = Trace.create () in
  Trace.emit sink ~tick:1000L ~comp:"eng" ~cat:Trace.Engine_issue ~detail:"add" [];
  Trace.emit sink ~tick:2000L ~comp:"dma" ~cat:Trace.Dma_burst_start
    [ ("size", Trace.I 64L) ];
  Trace.emit sink ~tick:5000L ~comp:"dma" ~cat:Trace.Dma_burst_end
    [ ("size", Trace.I 64L) ];
  Trace.emit sink ~tick:3000L ~comp:"eng" ~cat:Trace.Fu_occupancy ~detail:"fp_add"
    [ ("busy", Trace.I 2L) ];
  let json = render_json (Trace.events sink) in
  check Alcotest.bool "has traceEvents array" true
    (count_substring json "\"traceEvents\"" = 1);
  (* DMA burst renders as a begin/end span, FU occupancy as a counter *)
  check Alcotest.bool "burst begin" true (count_substring json "\"ph\":\"B\"" = 1);
  check Alcotest.bool "burst end" true (count_substring json "\"ph\":\"E\"" = 1);
  check Alcotest.bool "counter sample" true (count_substring json "\"ph\":\"C\"" = 1);
  check Alcotest.bool "instant event" true (count_substring json "\"ph\":\"i\"" >= 1);
  check Alcotest.bool "braces balance" true
    (count_substring json "{" = count_substring json "}")

let test_stats_txt () =
  let long_path = "gemm_n8_u4_j2.engine.fu_busy_integral.float_multiplier" in
  assert (String.length long_path > 50);
  let path = Filename.temp_file "salam_stats" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_stats_txt oc
        [
          ("engine.cycles", 42.0);
          ("cache.misses", 7.0);
          (long_path, 1234.0);
          ("engine.dynamic_fu_energy_pj", 0.5);
        ];
      close_out oc;
      let ic = open_in path in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check Alcotest.bool "gem5-style header" true
        (count_substring body "Begin Simulation Statistics" = 1);
      check Alcotest.bool "both stats present" true
        (count_substring body "engine.cycles" = 1 && count_substring body "cache.misses" = 1);
      (* every value ends in the same column, the long path's included *)
      let stat_lines =
        List.filter
          (fun l -> l <> "" && not (String.starts_with ~prefix:"----------" l))
          (String.split_on_char '\n' body)
      in
      check Alcotest.int "four stat lines" 4 (List.length stat_lines);
      List.iter
        (fun l ->
          check Alcotest.int ("value column of " ^ l)
            (String.length long_path + 1 + 20)
            (String.length l))
        stat_lines)

(* --- golden-trace regression -------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let check_golden name () =
  (* test binary runs in _build/default/test; golden/ is a declared dep *)
  let path = Filename.concat "golden" (name ^ ".trace") in
  if not (Sys.file_exists path) then
    Alcotest.failf
      "missing %s — bless it with `dune exec bin/salam_trace.exe -- bless --dir test/golden`"
      path;
  let golden = read_lines path in
  let current = String.split_on_char '\n' (String.trim (Check_trace.capture name)) in
  match Trace.first_divergence golden current with
  | None -> check Alcotest.bool "trace is non-empty" true (List.length golden > 0)
  | Some d ->
      Alcotest.failf
        "%s diverges from its golden trace: %s\n\
         If this timing change is intended, re-bless with\n\
        \  dune exec bin/salam_trace.exe -- bless --dir test/golden" name
        (Trace.divergence_to_string d)

(* With check mode off and neither stall nor occupancy lines recorded,
   the engines sleep through their quiet cycles instead of ticking them;
   every other line of the trace must be as blessed, at the same tick
   and in the same order. *)
let check_golden_sleeping name () =
  let kept line =
    match String.split_on_char ' ' line with
    | _ :: _ :: cat :: _ ->
        not
          (List.exists
             (fun c -> Trace.category_to_string c = cat)
             Salam_engine.Engine.per_cycle_categories)
    | _ -> true
  in
  let golden = List.filter kept (read_lines (Filename.concat "golden" (name ^ ".trace"))) in
  let current =
    String.split_on_char '\n' (String.trim (Check_trace.capture ~sleeping:true name))
  in
  match Trace.first_divergence golden current with
  | None -> check Alcotest.bool "filtered trace is non-empty" true (List.length golden > 0)
  | Some d ->
      Alcotest.failf "%s without stall and occupancy lines diverges: %s" name
        (Trace.divergence_to_string d)

(* Every golden trace belongs to a scenario: a file left behind by a
   deleted scenario would otherwise go unchecked. *)
let test_golden_files_match_scenarios () =
  let files =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".trace" then Some (Filename.chop_suffix f ".trace")
        else None)
      (Array.to_list (Sys.readdir "golden"))
  in
  check
    Alcotest.(list string)
    "golden/*.trace = scenario names"
    (List.sort compare Check_trace.names)
    (List.sort compare files)

(* golden-check and bless refuse a --dir that does not exist as a usage
   error naming it, before any scenario runs or any file is written *)
let test_missing_golden_dir_refused () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "salam-no-such-golden-dir" in
  List.iter
    (fun cmd ->
      let status, stdout, stderr =
        Test_dse.run_cli "../bin/salam_trace.exe" [ "salam_trace"; cmd; "--dir"; missing ]
      in
      check Alcotest.bool (cmd ^ " exits 124") true (status = Unix.WEXITED 124);
      check Alcotest.string (cmd ^ " prints nothing") "" stdout;
      check Alcotest.bool
        (Printf.sprintf "%S names --dir and %s" stderr missing)
        true
        (Test_store_shard.contains stderr "--dir" && Test_store_shard.contains stderr missing))
    [ "golden-check"; "bless" ]

(* run from a directory with no test/golden, the default --dir is
   refused the same way (124, naming it), and bless writes nothing *)
let test_default_golden_dir_refused () =
  let exe = Filename.concat (Sys.getcwd ()) "../bin/salam_trace.exe" in
  let here = Sys.getcwd () in
  let dir = Filename.temp_dir "salam-trace-default-dir" "" in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir here;
      Sys.rmdir dir)
    (fun () ->
      Sys.chdir dir;
      List.iter
        (fun cmd ->
          let status, stdout, stderr = Test_dse.run_cli exe [ "salam_trace"; cmd ] in
          check Alcotest.bool (cmd ^ " exits 124") true (status = Unix.WEXITED 124);
          check Alcotest.string (cmd ^ " prints nothing") "" stdout;
          check Alcotest.bool
            (Printf.sprintf "%S names --dir and test/golden" stderr)
            true
            (Test_store_shard.contains stderr "--dir"
            && Test_store_shard.contains stderr "test/golden"))
        [ "golden-check"; "bless" ];
      check Alcotest.(array string) "nothing written" [||] (Sys.readdir dir))

(* Every golden figure has a diff rule: golden/figures/dune diffs each
   bench/main.exe target's stdout against its .out file, and a .out file
   with no rule would otherwise go unchecked. *)
let test_golden_figures_have_rules () =
  let dir = Filename.concat "golden" "figures" in
  let rules =
    In_channel.with_open_bin (Filename.concat dir "dune") In_channel.input_all
  in
  let orphans =
    List.filter
      (fun f ->
        Filename.check_suffix f ".out"
        &&
        let name = Filename.chop_suffix f ".out" in
        count_substring rules (Printf.sprintf "(diff %s.out %s.gen)" name name) <> 1)
      (Array.to_list (Sys.readdir dir))
  in
  check Alcotest.(list string) "golden/figures/*.out without a diff rule" [] orphans

(* The figures' digest at each model epoch. Stored answers are keyed to
   the epoch ([Salam.model_epoch], hashed into every fingerprint), so a
   model change that moves a figure must bump it; re-blessing a figure
   without a bump fails here. A bump adds its row (epoch 2 moved no
   figure). *)
let figure_digests =
  [ (1, "219fb9ca9fbb620ddd6dea5c1cfa1d65"); (2, "219fb9ca9fbb620ddd6dea5c1cfa1d65") ]

let test_golden_figures_pinned_to_epoch () =
  let dir = Filename.concat "golden" "figures" in
  let outs =
    List.sort compare
      (List.filter (fun f -> Filename.check_suffix f ".out") (Array.to_list (Sys.readdir dir)))
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map
               (fun f ->
                 f ^ "\000" ^ In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
               outs)))
  in
  check
    Alcotest.(option string)
    (Printf.sprintf "digest of golden/figures/*.out at model epoch %d" Salam.model_epoch)
    (List.assoc_opt Salam.model_epoch figure_digests)
    (Some digest)

let golden_cases =
  List.concat_map
    (fun name ->
      [
        Alcotest.test_case ("golden " ^ name) `Quick (check_golden name);
        Alcotest.test_case ("golden " ^ name ^ ", engines sleeping") `Quick
          (check_golden_sleeping name);
      ])
    Check_trace.names

let suite =
  [
    Alcotest.test_case "ring bound" `Quick test_ring_bound;
    Alcotest.test_case "category gating" `Quick test_category_gating;
    Alcotest.test_case "canonical order + line format" `Quick test_canonical_order;
    Alcotest.test_case "category name round-trip" `Quick test_category_names_roundtrip;
    Alcotest.test_case "filters" `Quick test_filters;
    Alcotest.test_case "first_divergence" `Quick test_first_divergence;
    Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "stats.txt format" `Quick test_stats_txt;
    Alcotest.test_case "golden files match scenarios" `Quick test_golden_files_match_scenarios;
    Alcotest.test_case "golden figures have diff rules" `Quick test_golden_figures_have_rules;
    Alcotest.test_case "figure goldens pinned to the model epoch" `Quick
      test_golden_figures_pinned_to_epoch;
    Alcotest.test_case "golden-check and bless refuse a missing default --dir" `Quick
      test_default_golden_dir_refused;
    Alcotest.test_case "golden-check and bless refuse a missing --dir" `Quick
      test_missing_golden_dir_refused;
  ]
  @ golden_cases
