(* Tests for the kernel front end: lowering, SSA construction,
   optimisation passes and loop unrolling. *)

open Salam_ir
open Salam_frontend
open Salam_frontend.Lang

let check = Alcotest.check

let run_i32 kern args =
  let f = Compile.kernel kern in
  let mem = Memory.create ~size:(1 lsl 16) in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  match Interp.run mem m ~entry:kern.kname ~args with
  | Some (Bits.Int r) -> r
  | _ -> Alcotest.fail "expected integer result"

let test_if_else () =
  let kern =
    kernel "absdiff" ~ret:Ty.I32
      ~params:[ scalar "a" Ty.I32; scalar "b" Ty.I32 ]
      [
        if_ (v "a" >: v "b") [ Return (Some (v "a" -: v "b")) ] [ Return (Some (v "b" -: v "a")) ];
      ]
  in
  check Alcotest.int64 "5-3" 2L (run_i32 kern [ Bits.Int 5L; Bits.Int 3L ]);
  check Alcotest.int64 "3-5" 2L (run_i32 kern [ Bits.Int 3L; Bits.Int 5L ])

let test_nested_loops () =
  let kern =
    kernel "tri" ~ret:Ty.I32 ~params:[ scalar "n" Ty.I32 ]
      [
        decl Ty.I32 "acc" (i 0);
        for_ "a" (i 0) (v "n")
          [ for_ "b" (i 0) (v "a" +: i 1) [ assign "acc" (v "acc" +: i 1) ] ];
        Return (Some (v "acc"));
      ]
  in
  check Alcotest.int64 "triangle(5) = 15" 15L (run_i32 kern [ Bits.Int 5L ])

let test_while_loop () =
  let kern =
    kernel "log2floor" ~ret:Ty.I32 ~params:[ scalar "n" Ty.I32 ]
      [
        decl Ty.I32 "x" (v "n");
        decl Ty.I32 "l" (i 0);
        While (v "x" >: i 1, [ assign "x" (Binop (Shr, v "x", i 1)); assign "l" (v "l" +: i 1) ]);
        Return (Some (v "l"));
      ]
  in
  check Alcotest.int64 "log2 64" 6L (run_i32 kern [ Bits.Int 64L ])

let test_ternary_and_bool_ops () =
  let kern =
    kernel "clamp" ~ret:Ty.I32 ~params:[ scalar "x" Ty.I32 ]
      [
        Return
          (Some
             (Cond
                ( And (v "x" >=: i 0, v "x" <=: i 10),
                  v "x",
                  Cond (v "x" <: i 0, i 0, i 10) )));
      ]
  in
  check Alcotest.int64 "inside" 7L (run_i32 kern [ Bits.Int 7L ]);
  check Alcotest.int64 "below" 0L (run_i32 kern [ Bits.Int (-5L) ]);
  check Alcotest.int64 "above" 10L (run_i32 kern [ Bits.Int 42L ])

let test_mem2reg_promotes_all_scalars () =
  (* a compiled kernel using only scalar locals must contain no alloca *)
  let f = Salam_workloads.Workload.compile (Salam_workloads.Gemm.workload ~n:4 ()) in
  let allocas = ref 0 in
  Ast.iter_instrs f (fun _ instr ->
      match instr with Ast.Alloca _ -> incr allocas | _ -> ());
  check Alcotest.int "no allocas survive" 0 !allocas

let test_constant_folding () =
  let kern =
    kernel "konst" ~ret:Ty.I32 ~params:[]
      [ decl Ty.I32 "x" ((i 2 +: i 3) *: i 4); Return (Some (v "x" +: i 0)) ]
  in
  let f = Compile.kernel kern in
  (* everything folds to `ret 20` *)
  check Alcotest.int "single instruction" 1 (Ast.instr_count f);
  check Alcotest.int64 "value" 20L (run_i32 kern [])

let test_cse_removes_duplicates () =
  let kern =
    kernel "dup" ~ret:Ty.I32 ~params:[ scalar "x" Ty.I32 ]
      [ Return (Some ((v "x" *: v "x") +: (v "x" *: v "x"))) ]
  in
  let f = Compile.kernel kern in
  let muls = ref 0 in
  Ast.iter_instrs f (fun _ instr ->
      match instr with Ast.Binop { op = Ast.Mul; _ } -> incr muls | _ -> ());
  check Alcotest.int "one multiply after CSE" 1 !muls

(* The value-numbering key sees operands by register id and constants
   by type and bits: identical geps and identical [fadd x, 0.0] merge
   into the first, while [fadd x, -0.0] and casts that differ only in
   their destination type stay apart. *)
let test_cse_key () =
  let b =
    Builder.create ~name:"keys" ~ret_ty:Ty.F64
      ~params:[ ("base", Ty.Ptr); ("k", Ty.I32); ("x", Ty.F64) ]
  in
  let base, k, x =
    match Builder.params b with [ p; k; x ] -> Ast.(Var p, Var k, Var x) | _ -> assert false
  in
  Builder.add_block b "entry";
  ignore (Builder.gep b ~name:"p1" base [ (8, k) ]);
  let p2 = Builder.gep b ~name:"p2" base [ (8, k) ] in
  let v = Builder.load b ~name:"v" Ty.F64 p2 in
  ignore (Builder.binop b ~name:"a1" Ast.Fadd x (Builder.cf64 0.0));
  let a2 = Builder.binop b ~name:"a2" Ast.Fadd x (Builder.cf64 0.0) in
  let a3 = Builder.binop b ~name:"a3" Ast.Fadd x (Builder.cf64 (-0.0)) in
  ignore (Builder.cast b ~name:"c1" Ast.Sitofp k Ty.F32);
  let c2 = Builder.cast b ~name:"c2" Ast.Sitofp k Ty.F64 in
  let s = Builder.binop b ~name:"s" Ast.Fadd a2 a3 in
  let s = Builder.binop b ~name:"s2" Ast.Fadd s v in
  let s = Builder.binop b ~name:"s3" Ast.Fadd s c2 in
  Builder.ret b (Some s);
  let f = Builder.finish b in
  check Alcotest.int "two merged" 2 (Passes.common_subexpr f);
  let var_name = function Ast.Var v -> v.Ast.vname | Ast.Const _ -> "const" in
  let shown =
    List.map
      (fun instr ->
        match instr with
        | Ast.Load { dst; addr } -> dst.Ast.vname ^ " <- " ^ var_name addr
        | Ast.Binop { dst; lhs; rhs; _ } ->
            dst.Ast.vname ^ " <- " ^ var_name lhs ^ " " ^ var_name rhs
        | i -> ( match Ast.defined_var i with Some d -> d.Ast.vname | None -> "ret"))
      (Ast.entry_block f).Ast.instrs
  in
  check
    Alcotest.(list string)
    "survivors and rewritten uses"
    [
      "p1";
      "v <- p1";
      "a1 <- x const";
      "a3 <- x const";
      "c1";
      "c2";
      "s <- a1 a3";
      "s2 <- s v";
      "s3 <- s2 c2";
      "ret";
    ]
    shown

let test_unroll_preserves_semantics () =
  List.iter
    (fun unroll ->
      let w = Salam_workloads.Gemm.workload ~n:8 ~unroll () in
      check Alcotest.bool
        (Printf.sprintf "gemm unroll=%d correct" unroll)
        true
        (Salam_workloads.Workload.run_functional w))
    [ 1; 2; 4; 8 ]

let test_full_unroll_eliminates_loop () =
  let kern =
    kernel "sum4" ~ret:Ty.I32 ~params:[ array "a" Ty.I32 [ 4 ] ]
      [
        decl Ty.I32 "acc" (i 0);
        for_ ~unroll:4 "k" (i 0) (i 4) [ assign "acc" (v "acc" +: idx "a" [ v "k" ]) ];
        Return (Some (v "acc"));
      ]
  in
  let f = Compile.kernel kern in
  check Alcotest.int "straight-line (one block)" 1 (List.length f.Ast.blocks)

let test_unroll_reduces_dynamic_control () =
  let count_instrs unroll =
    Test_engine.dynamic_instructions (Salam_workloads.Gemm.workload ~n:8 ~unroll ())
  in
  check Alcotest.bool "unrolling shrinks the dynamic instruction count" true
    (count_instrs 4 < count_instrs 1)

let test_all_suite_kernels_verify () =
  List.iter
    (fun w ->
      let f = Salam_workloads.Workload.compile w in
      check Alcotest.int
        ("verify " ^ w.Salam_workloads.Workload.name)
        0
        (List.length (Verify.func f)))
    (Salam_workloads.Suite.standard () @ Salam_workloads.Suite.quick ())

(* random arithmetic expressions over two i32 variables, evaluated both
   by the compiled kernel and by a direct OCaml evaluator *)
let qcheck_lowering_matches_reference =
  let gen =
    QCheck.Gen.(
      sized_size (int_bound 6) (fix (fun self n ->
          if n = 0 then
            oneof
              [ map (fun i -> Int_lit (Int64.of_int i)) (int_range (-100) 100);
                return (Var "x");
                return (Var "y") ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 (fun a b -> Binop (Add, a, b)) sub sub;
                map2 (fun a b -> Binop (Sub, a, b)) sub sub;
                map2 (fun a b -> Binop (Mul, a, b)) sub sub;
                map (fun a -> Neg a) sub;
                map2 (fun a b -> Cond (Cmp (Lt, a, b), a, b)) sub sub;
              ])))
  in
  let rec eval env (e : expr) : int32 =
    match e with
    | Int_lit i -> Int64.to_int32 i
    | Var n -> List.assoc n env
    | Binop (Add, a, b) -> Int32.add (eval env a) (eval env b)
    | Binop (Sub, a, b) -> Int32.sub (eval env a) (eval env b)
    | Binop (Mul, a, b) -> Int32.mul (eval env a) (eval env b)
    | Neg a -> Int32.neg (eval env a)
    | Cond (Cmp (Lt, a, b), t, f) -> if eval env a < eval env b then eval env t else eval env f
    | _ -> Alcotest.fail "generator produced an unexpected node"
  in
  let counter = ref 0 in
  QCheck.Test.make ~name:"lowered expressions match a reference evaluator" ~count:100
    (QCheck.make gen) (fun e ->
      incr counter;
      let kern =
        kernel
          (Printf.sprintf "qc_expr_%d" !counter)
          ~ret:Ty.I32
          ~params:[ scalar "x" Ty.I32; scalar "y" Ty.I32 ]
          [ Return (Some e) ]
      in
      let expect = eval [ ("x", 13l); ("y", -7l) ] e in
      let got = run_i32 kern [ Bits.Int 13L; Bits.Int (-7L) ] in
      Int64.equal (Int64.of_int32 expect) (Bits.signed Ty.I32 got))

let suite =
  [
    Alcotest.test_case "if/else with returns" `Quick test_if_else;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "ternary and booleans" `Quick test_ternary_and_bool_ops;
    Alcotest.test_case "mem2reg promotes all scalars" `Quick test_mem2reg_promotes_all_scalars;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "local CSE" `Quick test_cse_removes_duplicates;
    Alcotest.test_case "CSE key: geps, signed zero, cast types" `Quick test_cse_key;
    Alcotest.test_case "unroll preserves semantics" `Quick test_unroll_preserves_semantics;
    Alcotest.test_case "full unroll eliminates loop" `Quick test_full_unroll_eliminates_loop;
    Alcotest.test_case "unroll reduces dynamic control" `Quick test_unroll_reduces_dynamic_control;
    Alcotest.test_case "all suite kernels verify" `Quick test_all_suite_kernels_verify;
    QCheck_alcotest.to_alcotest qcheck_lowering_matches_reference;
  ]
