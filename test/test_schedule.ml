(* Tests for the schedule-specialization pre-pass: exact region
   structure of the golden vecadd kernel, partition invariants across
   the quick suite, error parity with the dynamic import path, and
   compiled-vs-dynamic bit-identity over every memory kind. *)

module Schedule = Salam_engine.Schedule
module W = Salam_workloads.Workload

let check = Alcotest.check

let compile_workload (w : W.t) =
  Schedule.compile (Salam_cdfg.Datapath.build (W.compile w))

(* The vecadd kernel behind the engine_compile_vecadd golden trace: the
   pre-pass must report the exact partition the golden file pins. *)
let test_vecadd_regions () =
  let t = compile_workload Check_trace.vecadd_workload in
  check Alcotest.int "regions" 6 (Schedule.region_count t);
  check Alcotest.int "region ops" 8 (Schedule.region_ops t);
  check Alcotest.int "max region ops" 2 (Schedule.max_region_ops t);
  check
    Alcotest.(list (pair string int))
    "boundary counts"
    [ ("load", 2); ("store", 1); ("cond_br", 1); ("ret", 1) ]
    (Schedule.boundary_counts t);
  (* inner loop body: two loads and a store split it into four runs *)
  let body = Schedule.regions t "for.body2" in
  check
    Alcotest.(list string)
    "body boundaries"
    [ "load"; "load"; "store"; "end" ]
    (Array.to_list (Array.map (fun r -> r.Schedule.rg_boundary) body))

(* Structural invariants of the partition, over every quick-suite
   kernel: regions are ordered, non-empty, in bounds and disjoint; the
   aggregate counters agree with the per-block region arrays; replay
   rows inside a region are compute-class with the right ordinal while
   boundary rows carry -1. *)
let test_partition_invariants () =
  List.iter
    (fun (w : W.t) ->
      let t = compile_workload w in
      let total = ref 0 and ops = ref 0 and widest = ref 0 in
      List.iter
        (fun label ->
          let bs = Schedule.find t label in
          let size = Schedule.block_size bs in
          let rs = Schedule.regions t label in
          let stop = ref 0 in
          Array.iter
            (fun r ->
              check Alcotest.bool "region non-empty" true (r.Schedule.rg_len >= 1);
              check Alcotest.bool "regions ordered" true (r.Schedule.rg_start >= !stop);
              stop := r.Schedule.rg_start + r.Schedule.rg_len;
              check Alcotest.bool "region in bounds" true (!stop <= size);
              check Alcotest.bool "boundary reason known" true
                (List.mem r.Schedule.rg_boundary
                   [ "load"; "store"; "cond_br"; "ret"; "end" ]))
            rs;
          total := !total + Array.length rs;
          Array.iter (fun r -> ops := !ops + r.Schedule.rg_len) rs;
          Array.iter (fun r -> widest := max !widest r.Schedule.rg_len) rs;
          (* phi-free blocks expose their single variant along any pred *)
          match Schedule.rows bs ~pred:"*" with
          | rows ->
              check Alcotest.int "rows per variant" size (Array.length rows);
              Array.iteri
                (fun i row ->
                  let inside =
                    Array.exists
                      (fun r ->
                        i >= r.Schedule.rg_start
                        && i < r.Schedule.rg_start + r.Schedule.rg_len)
                      rs
                  in
                  if inside then begin
                    check Alcotest.bool "region rows are compute" true
                      (row.Schedule.r_kind = Schedule.Kcompute);
                    check Alcotest.bool "region ordinal set" true
                      (row.Schedule.r_region >= 0)
                  end
                  else check Alcotest.int "boundary row ordinal" (-1) row.Schedule.r_region)
                rows
          | exception Invalid_argument _ -> ())
        (Schedule.blocks t);
      check Alcotest.int "region_count agrees" (Schedule.region_count t) !total;
      check Alcotest.int "region_ops agrees" (Schedule.region_ops t) !ops;
      check Alcotest.int "max_region_ops agrees" (Schedule.max_region_ops t) !widest)
    (Salam_workloads.Suite.quick ())

(* The compiled lookup paths fail exactly like the dynamic import path:
   same exception, same message. *)
let test_error_parity () =
  let t = compile_workload Check_trace.vecadd_workload in
  (try
     ignore (Schedule.find t "nosuch");
     Alcotest.fail "expected Invalid_argument for an unknown block"
   with Invalid_argument msg ->
     check Alcotest.string "unknown-block message" "Engine: unknown block nosuch" msg);
  (* the loop header has a phi: a non-edge predecessor must raise the
     dynamic path's message *)
  let header = Schedule.find t "for.cond1" in
  ignore (Schedule.rows header ~pred:"entry");
  try
    ignore (Schedule.rows header ~pred:"bogus");
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

let suite =
  [
    Alcotest.test_case "vecadd region structure" `Quick test_vecadd_regions;
    Alcotest.test_case "partition invariants (quick suite)" `Quick
      test_partition_invariants;
    Alcotest.test_case "import error parity" `Quick test_error_parity;
    Alcotest.test_case "modes bit-identical (quick suite x memories)" `Slow
      test_modes_bit_identical;
  ]
