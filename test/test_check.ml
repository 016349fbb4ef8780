(* Tests for the differential validation harness: the interpreter-vs-
   engine oracle, the kernel fuzzer (including a planted-bug detection
   run) and the timing-invariant checker. *)

open Salam_frontend
module W = Salam_workloads.Workload
module Engine = Salam_engine.Engine

let check = Alcotest.check

(* the default configuration under another memory attachment *)
let with_memory memory = { Salam.Config.default with Salam.Config.memory }

let cache_config ~size ~ways =
  with_memory (Salam.Config.Cache { size; line_bytes = 64; ways; hit_latency = 2 })

let dram_config = with_memory Salam.Config.Dram_direct

(* --- oracle ----------------------------------------------------------- *)

let test_oracle_quick_suite () =
  List.iter
    (fun (w : W.t) ->
      match Check_oracle.check_workload w with
      | Ok () -> ()
      | Error f ->
          Alcotest.failf "%s: %s" w.W.name (Check_oracle.failure_to_string f))
    (Salam_workloads.Suite.quick ())

let test_oracle_cache_and_dram () =
  (* one workload through each non-SPM attachment; the cache run also
     exercises [Cache.invariant_errors] at quiescence *)
  let w = List.hd (Salam_workloads.Suite.quick ()) in
  List.iter
    (fun config ->
      match Check_oracle.check_workload ~config w with
      | Ok () -> ()
      | Error f -> Alcotest.failf "%s: %s" w.W.name (Check_oracle.failure_to_string f))
    [ cache_config ~size:4096 ~ways:4; dram_config ]

let test_oracle_catches_planted_bug () =
  (* a hand-built kernel with one fadd; flipping it on the engine side
     must surface as a divergence in buffer [a] with provenance *)
  let k =
    {
      Lang.kname = "planted";
      ret = Salam_ir.Ty.Void;
      params = [ Lang.array "a" Salam_ir.Ty.F64 [ Check_fuzz.n_elems ] ];
      body = [ Lang.Store ("a", [ Lang.Int_lit 0L ],
                           Lang.Binop (Lang.Add, Lang.Index ("a", [ Lang.Int_lit 1L ]),
                                       Lang.Float_lit 1.5)) ];
    }
  in
  let w =
    {
      W.name = "planted";
      kernel = k;
      buffers = [ ("a", Check_fuzz.n_elems * 8) ];
      scalar_args = [];
      init =
        (fun _ mem bases ->
          Salam_ir.Memory.write_f64_array mem bases.(0)
            (Array.init Check_fuzz.n_elems float_of_int));
      check = (fun _ _ -> true);
    }
  in
  let func = Compile.kernel k in
  let engine_func = Check_fuzz.plant_float_bug (Compile.kernel k) in
  match Check_oracle.check_workload ~func ~engine_func w with
  | Ok () -> Alcotest.fail "planted fadd->fsub bug was not detected"
  | Error (Check_oracle.Divergence d) ->
      check Alcotest.string "divergence in buffer a" "a" d.Check_oracle.d_buffer;
      check Alcotest.int "at the stored word" 0 d.Check_oracle.d_offset;
      (match d.Check_oracle.d_store with
      | Some p ->
          check Alcotest.bool "provenance names a store" true
            (String.length p.Check_oracle.p_instr > 0)
      | None -> Alcotest.fail "divergent byte has no store provenance")
  | Error f -> Alcotest.failf "unexpected failure: %s" (Check_oracle.failure_to_string f)

(* --- fuzzer ------------------------------------------------------------ *)

let test_fuzz_generation_deterministic () =
  for case = 0 to 9 do
    let a = Check_fuzz.gen_kernel ~seed:99L ~case in
    let b = Check_fuzz.gen_kernel ~seed:99L ~case in
    check Alcotest.string
      (Printf.sprintf "case %d reproducible" case)
      (Check_fuzz.kernel_to_string a) (Check_fuzz.kernel_to_string b)
  done

let test_fuzz_clean_campaign () =
  let failures = Check_fuzz.run ~seed:123L ~count:25 () in
  List.iter
    (fun (f : Check_fuzz.case_failure) ->
      Printf.printf "case %d: %s\n%s\n" f.Check_fuzz.cf_case
        (Check_fuzz.failure_kind_to_string f.Check_fuzz.cf_failure)
        (Check_fuzz.kernel_to_string f.Check_fuzz.cf_shrunk))
    failures;
  check Alcotest.int "no divergences on main" 0 (List.length failures)

let test_fuzz_finds_planted_bug () =
  let failures =
    Check_fuzz.run ~mutate:Check_fuzz.plant_float_bug ~seed:7L ~count:20 ()
  in
  check Alcotest.bool "planted bug found" true (failures <> []);
  (* shrinking must keep the kernel failing and never grow it *)
  List.iter
    (fun (f : Check_fuzz.case_failure) ->
      let data_seed = Int64.add 7L (Int64.of_int f.Check_fuzz.cf_case) in
      (match
         Check_fuzz.run_kernel ~mutate:Check_fuzz.plant_float_bug ~data_seed
           f.Check_fuzz.cf_shrunk
       with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk kernel no longer fails");
      check Alcotest.bool "shrunk kernel is no larger" true
        (List.length f.Check_fuzz.cf_shrunk.Lang.body
        <= List.length f.Check_fuzz.cf_kernel.Lang.body))
    failures

(* --- timing invariants and located faults ------------------------------ *)

let test_engine_located_division_fault () =
  (* b[0] / b[1] with b[1] = 0: the engine must locate the fault rather
     than escape with a bare Division_by_zero *)
  let k =
    {
      Lang.kname = "divfault";
      ret = Salam_ir.Ty.Void;
      params = [ Lang.array "b" Salam_ir.Ty.I32 [ 4 ] ];
      body =
        [ Lang.Store ("b", [ Lang.Int_lit 2L ],
                      Lang.Binop (Lang.Div, Lang.Index ("b", [ Lang.Int_lit 0L ]),
                                  Lang.Index ("b", [ Lang.Int_lit 1L ]))) ];
    }
  in
  let w =
    {
      W.name = "divfault";
      kernel = k;
      buffers = [ ("b", 16) ];
      scalar_args = [];
      init =
        (fun _ mem bases -> Salam_ir.Memory.write_i32_array mem bases.(0) [| 6; 0; 0; 0 |]);
      check = (fun _ _ -> true);
    }
  in
  let func = Compile.kernel k in
  try
    ignore (Check_harness.run_engine ~func w);
    Alcotest.fail "expected a located engine runtime error"
  with Engine.Runtime_error msg ->
    let has needle =
      let n = String.length needle and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "mentions division" true (has "division by zero");
    check Alcotest.bool "names the function" true (has "@divfault");
    check Alcotest.bool "shows the instruction" true (has "div")

let test_invariant_checker_runs_clean () =
  (* run a real workload with check=true through every memory kind; any
     invariant violation raises out of run_engine *)
  let w = List.hd (Salam_workloads.Suite.quick ()) in
  List.iter
    (fun config -> ignore (Check_harness.run_engine ~config w))
    [ Salam.Config.default; cache_config ~size:2048 ~ways:2; dram_config ]

(* LLVM phis are parallel copies. The loop header below holds
   [%t1 = phi [5, %entry], [%k0, %for.body]] right after [%k0]'s own
   phi, so on the back edge [%t1] must read the [%k0] of the iteration
   that just ended, not the one the header's first phi is defining
   (fuzz seed 11, case 223, shrunk). The interpreter writes a[3..5];
   an engine that links [%t1] to the new [%k0] also wrote a[2]. *)
let test_phi_reads_earlier_phi () =
  let open Lang in
  let k =
    kernel "phi_reads_earlier_phi"
      ~params:
        [ array "a" Salam_ir.Ty.F64 [ Check_fuzz.n_elems ]; array "b" Salam_ir.Ty.I32 [ Check_fuzz.n_elems ] ]
      [
        decl Salam_ir.Ty.F64 "x" (f 1.0);
        decl Salam_ir.Ty.F64 "y" (f 2.0);
        decl Salam_ir.Ty.I32 "t0" (i 3);
        decl Salam_ir.Ty.I32 "t1" (i 5);
        for_ "k0" (i 0) (i 8) [ assign "t1" (v "k0") ];
        for_ "k1" (i 0) (i 6)
          [ if_ ((i 13 -: v "t1") <=: (v "t0" +: v "k1")) [ store "a" [ v "k1" ] (v "x") ] [] ];
      ]
  in
  let w =
    {
      W.name = "phi_reads_earlier_phi";
      kernel = k;
      buffers = [ ("a", Check_fuzz.n_elems * 8); ("b", Check_fuzz.n_elems * 4) ];
      scalar_args = [];
      init = (fun _ _ _ -> ());
      check =
        (fun mem bases ->
          let a = Salam_ir.Memory.read_f64_array mem bases.(0) 6 in
          a = [| 0.; 0.; 0.; 1.; 1.; 1. |]);
    }
  in
  check Alcotest.bool "interpreter writes a[3..5]" true (W.run_functional w);
  List.iter
    (fun mode ->
      let config =
        { Salam.Config.default with Salam.Config.engine = { Engine.default_config with mode } }
      in
      match Check_oracle.check_workload ~config w with
      | Ok () -> ()
      | Error f ->
          Alcotest.failf "%s engine: %s" (Engine.mode_to_string mode)
            (Check_oracle.failure_to_string f))
    [ Engine.Compiled; Engine.Dynamic ]

let suite =
  [
    Alcotest.test_case "oracle agrees on quick suite" `Slow test_oracle_quick_suite;
    Alcotest.test_case "oracle over cache and dram" `Quick test_oracle_cache_and_dram;
    Alcotest.test_case "oracle catches planted bug" `Quick test_oracle_catches_planted_bug;
    Alcotest.test_case "fuzz generation deterministic" `Quick test_fuzz_generation_deterministic;
    Alcotest.test_case "fuzz clean campaign" `Slow test_fuzz_clean_campaign;
    Alcotest.test_case "fuzz finds planted bug" `Slow test_fuzz_finds_planted_bug;
    Alcotest.test_case "engine locates division fault" `Quick test_engine_located_division_fault;
    Alcotest.test_case "invariant checker runs clean" `Quick test_invariant_checker_runs_clean;
    Alcotest.test_case "phi reads an earlier phi's old value" `Quick test_phi_reads_earlier_phi;
  ]
