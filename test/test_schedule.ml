(* Tests for the schedule-specialization pre-pass: error parity with the
   dynamic import path and compiled-vs-dynamic bit-identity over every
   memory kind. *)

module Schedule = Salam_engine.Schedule
module W = Salam_workloads.Workload

let check = Alcotest.check

let compile_workload (w : W.t) =
  Schedule.compile (Salam_cdfg.Datapath.build (W.compile w))

(* A malformed edge fails exactly like the dynamic import path when it
   is taken: same exception, same message. *)
let test_error_parity () =
  let t = compile_workload Check_trace.vecadd_workload in
  (try
     ignore (Schedule.edge_rows (Schedule.edge t ~label:"nosuch" ~pred:"entry"));
     Alcotest.fail "expected Invalid_argument for an unknown block"
   with Invalid_argument msg ->
     check Alcotest.string "unknown-block message" "Engine: unknown block nosuch" msg);
  (* the loop header has a phi: a non-edge predecessor must raise the
     dynamic path's message *)
  ignore (Schedule.edge_rows (Schedule.edge t ~label:"for.cond1" ~pred:"entry"));
  try
    ignore (Schedule.edge_rows (Schedule.edge t ~label:"for.cond1" ~pred:"bogus"));
    Alcotest.fail "expected Invalid_argument for a non-edge predecessor"
  with Invalid_argument msg ->
    check Alcotest.string "missing-phi message"
      "Engine: phi in for.cond1 lacks incoming for bogus" msg

(* Compiled replay must be bit-identical to dynamic execution — stores,
   statistics, return value and trace stream — on every quick-suite
   workload under every memory attachment. *)
let test_modes_bit_identical () =
  List.iter
    (fun (kname, config) ->
      List.iter
        (fun (w : W.t) ->
          match Check_oracle.check_modes ~config w with
          | Ok () -> ()
          | Error f ->
              Alcotest.failf "%s under %s: %s" w.W.name kname
                (Check_oracle.failure_to_string f))
        (Salam_workloads.Suite.quick ()))
    [
      ("spm", Salam.Config.default);
      ("cache", Test_check.cache_config ~size:1024 ~ways:2);
      ("dram", Test_check.dram_config);
    ]

(* The pre-pass allocates little more than the schedule it keeps: on the
   Fig 13 gemm (u16/j8, 708 nodes) it keeps about 13k words, and
   compiling it may allocate at most 20,000. *)
let test_compile_words () =
  let w = Salam_workloads.Gemm.workload ~n:16 ~unroll:16 ~junroll:8 () in
  let dp = Salam_cdfg.Datapath.build (W.compile w) in
  ignore (Schedule.compile dp);
  let w0 = Gc.minor_words () in
  let t = Schedule.compile dp in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity t);
  if words > 20_000. then
    Alcotest.failf "Schedule.compile of %s allocated %.0f minor words, above 20,000" w.W.name
      words

let suite =
  [
    Alcotest.test_case "import error parity" `Quick test_error_parity;
    Alcotest.test_case "compile allocates what it keeps" `Quick test_compile_words;
    Alcotest.test_case "modes bit-identical (quick suite x memories)" `Slow
      test_modes_bit_identical;
  ]
