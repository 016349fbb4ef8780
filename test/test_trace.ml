(* Tests for the trace/observability layer: sink semantics (ring bound,
   category gating, canonical ordering), the text/JSON renderers, trace
   diffing, and the golden traces. Each golden file under golden/ is
   diffed against its scenario's capture by a rule in golden/dune and
   blessed by `dune promote`; these tests check that every golden has
   its rule and that the engines, sleeping through quiet cycles, still
   produce every line of the blessed trace that is not per cycle. *)

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
    (ks = [ Trace.I 6L; Trace.I 7L; Trace.I 8L; Trace.I 9L ])

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
  let emit_three sink =
    Trace.emit sink ~tick:5L ~comp:"eng.gemm" ~cat:Trace.Engine_issue [];
    Trace.emit sink ~tick:15L ~comp:"eng.gemm" ~cat:Trace.Cache_miss [];
    Trace.emit sink ~tick:25L ~comp:"l1" ~cat:Trace.Cache_miss []
  in
  let sink = Trace.create () in
  emit_three sink;
  (* categories are chosen when the sink is made, as salam_sim --category does *)
  let by_cat = Trace.create ~categories:[ Trace.Cache_miss ] () in
  emit_three by_cat;
  check Alcotest.int "category filter" 2 (List.length (Trace.filtered by_cat));
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

(* The goldens are copied next to the test executable, so any working
   directory reads them. *)
let test_dir = Filename.dirname Sys.executable_name

let golden_dir = Filename.concat test_dir "golden"

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
  let golden = List.filter kept (read_lines (Filename.concat golden_dir (name ^ ".trace"))) in
  let current =
    String.split_on_char '\n' (String.trim (Check_trace.capture ~sleeping:true name))
  in
  match Trace.first_divergence golden current with
  | None -> check Alcotest.bool "filtered trace is non-empty" true (List.length golden > 0)
  | Some d ->
      Alcotest.failf "%s without stall and occupancy lines diverges: %s" name
        (Trace.divergence_to_string d)

(* The [A.ext] of each [(diff A.ext A.gen)] action in a dune file. *)
let diffed dune_file =
  List.filter_map
    (fun s ->
      match String.split_on_char ' ' (List.hd (String.split_on_char ')' s)) with
      | [ "diff"; a; b ] when Filename.remove_extension a ^ ".gen" = b -> Some a
      | _ -> None)
    (String.split_on_char '(' (In_channel.with_open_bin dune_file In_channel.input_all))

(* Files in [dir] ending in [ext] that [dir]/dune does not diff exactly once. *)
let unruled dir ext =
  let rules = diffed (Filename.concat dir "dune") in
  List.filter
    (fun f -> Filename.check_suffix f ext && List.length (List.filter (( = ) f) rules) <> 1)
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* The golden traces are exactly the trace scenarios, and golden/dune
   diffs each once against its producer: a trace left behind by a deleted
   scenario, or a dropped rule, fails here, as nothing else checks it. *)
let test_golden_files_match_scenarios () =
  let files =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".trace" then Some (Filename.chop_suffix f ".trace")
        else None)
      (Array.to_list (Sys.readdir golden_dir))
  in
  check
    Alcotest.(list string)
    "golden/*.trace = scenario names"
    (List.sort compare Check_trace.names)
    (List.sort compare files);
  check Alcotest.(list string) "golden/*.trace without one diff rule" [] (unruled golden_dir ".trace");
  check
    Alcotest.(list string)
    "golden/dune diffs exactly the scenarios' traces"
    (List.sort compare (List.map (fun n -> n ^ ".trace") Check_trace.names))
    (List.sort compare (diffed (Filename.concat golden_dir "dune")))

(* Every golden figure has one diff rule in golden/figures/dune; a .out
   file with no rule would otherwise go unchecked. *)
let test_golden_figures_have_rules () =
  check Alcotest.(list string) "golden/figures/*.out without one diff rule" []
    (unruled (Filename.concat golden_dir "figures") ".out")

(* share/dune diffs the shipped database against its render. *)
let test_shipped_db_has_rule () =
  check Alcotest.(list string) "share/dune diffs the shipped database" [ "salam-40nm.db" ]
    (diffed (Filename.concat (Filename.dirname test_dir) (Filename.concat "share" "dune")))

(* The figures' digest at each model epoch. Stored answers are keyed to
   the epoch ([Salam.model_epoch], hashed into every fingerprint), so a
   model change that moves a figure must bump it; re-blessing a figure
   without a bump fails here. A bump adds its row (epoch 2 moved no
   figure; epoch 3 moved Fig 13's cache rows). *)
let figure_digests =
  [
    (1, "219fb9ca9fbb620ddd6dea5c1cfa1d65");
    (2, "219fb9ca9fbb620ddd6dea5c1cfa1d65");
    (3, "7fd487d5b54bf299cb4662a7baff3493");
  ]

let test_golden_figures_pinned_to_epoch () =
  let dir = Filename.concat golden_dir "figures" in
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
  List.map
    (fun name ->
      Alcotest.test_case ("golden " ^ name ^ ", engines sleeping") `Quick
        (check_golden_sleeping name))
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
    Alcotest.test_case "shipped database has a diff rule" `Quick test_shipped_db_has_rule;
    Alcotest.test_case "figure goldens pinned to the model epoch" `Quick
      test_golden_figures_pinned_to_epoch;
  ]
  @ golden_cases
