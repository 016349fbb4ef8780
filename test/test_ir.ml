(* Tests for the IR substrate: types, value semantics, builder +
   verifier, printer/parser round trips, CFG analyses, flat memory and
   the functional interpreter. *)

open Salam_ir

let check = Alcotest.check

(* --- types -------------------------------------------------------- *)

let test_ty_roundtrip () =
  List.iter
    (fun ty ->
      check (Alcotest.option Alcotest.string) "of_string/to_string"
        (Some (Ty.to_string ty))
        (Option.map Ty.to_string (Ty.of_string (Ty.to_string ty))))
    [ Ty.I1; Ty.I8; Ty.I16; Ty.I32; Ty.I64; Ty.F32; Ty.F64; Ty.Ptr; Ty.Void ]

let test_ty_sizes () =
  check Alcotest.int "i32 bytes" 4 (Ty.size_bytes Ty.I32);
  check Alcotest.int "f64 bytes" 8 (Ty.size_bytes Ty.F64);
  check Alcotest.int "i1 bits" 1 (Ty.bits Ty.I1);
  check Alcotest.int "ptr bits" 64 (Ty.bits Ty.Ptr)

(* --- bits ----------------------------------------------------------- *)

let test_bits_masking () =
  check Alcotest.int64 "i8 wraps" 44L (Bits.Payload.binop Ast.Add Ty.I8 200L 100L)

let test_bits_signed_unsigned_compare () =
  let minus_one = Bits.Payload.truncate Ty.I32 (-1L) in
  check Alcotest.int64 "slt: -1 < 1" 1L (Bits.Payload.icmp Ast.Islt Ty.I32 minus_one 1L);
  check Alcotest.int64 "ult: 0xffffffff > 1" 1L (Bits.Payload.icmp Ast.Iugt Ty.I32 minus_one 1L)

let test_bits_f32_rounding () =
  let a = Int64.bits_of_float 0.1 and b = Int64.bits_of_float 0.2 in
  let f32 = Bits.Payload.binop Ast.Fadd Ty.F32 a b in
  let f64 = Bits.Payload.binop Ast.Fadd Ty.F64 a b in
  check Alcotest.bool "f32 add rounds differently from f64"
    true
    (Int64.float_of_bits f32 <> Int64.float_of_bits f64)

let test_bits_division_by_zero () =
  Alcotest.check_raises "sdiv by zero" Division_by_zero (fun () ->
      ignore (Bits.Payload.binop Ast.Sdiv Ty.I32 5L 0L))

(* a cast of a boxed value, computed on its payload *)
let cast op ~src_ty ~dst_ty v =
  Bits.of_payload dst_ty (Bits.Payload.cast op ~src_ty ~dst_ty (Bits.payload v))

let test_bits_casts () =
  let v = cast Ast.Sext ~src_ty:Ty.I8 ~dst_ty:Ty.I32 (Bits.Int 0xFFL) in
  check Alcotest.int64 "sext i8 -1" (Bits.to_int64 (Bits.truncate Ty.I32 (Bits.Int (-1L)))) (Bits.to_int64 v);
  let z = cast Ast.Zext ~src_ty:Ty.I8 ~dst_ty:Ty.I32 (Bits.Int 0xFFL) in
  check Alcotest.int64 "zext i8 255" 255L (Bits.to_int64 z);
  let f = cast Ast.Sitofp ~src_ty:Ty.I32 ~dst_ty:Ty.F64 (Bits.Int (-3L)) in
  check (Alcotest.float 1e-9) "sitofp" (-3.0) (Bits.to_float f);
  let i = cast Ast.Fptosi ~src_ty:Ty.F64 ~dst_ty:Ty.I32 (Bits.Float 7.9) in
  check Alcotest.int64 "fptosi truncates" 7L (Bits.to_int64 i)

(* One case per cast operator, with destination types chosen to expose
   any operator that ignores [dst_ty]. *)
let test_bits_every_cast () =
  (* trunc: keeps only dst bits *)
  check Alcotest.int64 "trunc i32->i8" 0x34L
    (Bits.to_int64 (cast Ast.Trunc ~src_ty:Ty.I32 ~dst_ty:Ty.I8 (Bits.Int 0x1234L)));
  (* zext: reads src unsigned *)
  check Alcotest.int64 "zext i16->i64" 0xFFFFL
    (Bits.to_int64 (cast Ast.Zext ~src_ty:Ty.I16 ~dst_ty:Ty.I64 (Bits.Int 0xFFFFL)));
  (* sext: reads src signed *)
  check Alcotest.int64 "sext i16->i32 of -2" 0xFFFFFFFEL
    (Bits.to_int64
       (Bits.truncate Ty.I64
          (Bits.Int
             (Bits.to_int64 (cast Ast.Sext ~src_ty:Ty.I16 ~dst_ty:Ty.I32 (Bits.Int 0xFFFEL))))));
  (* fptrunc to f32 rounds to single precision *)
  let pi = 3.14159265358979312 in
  check Alcotest.bool "fptrunc f64->f32 rounds" true
    (Bits.to_float (cast Ast.Fptrunc ~src_ty:Ty.F64 ~dst_ty:Ty.F32 (Bits.Float pi)) <> pi);
  (* fptrunc to f64 must be exact: the operator must honour dst_ty rather
     than always rounding to f32 (regression for the hard-coded-f32 bug) *)
  check (Alcotest.float 0.0) "fptrunc f64->f64 is exact" pi
    (Bits.to_float (cast Ast.Fptrunc ~src_ty:Ty.F64 ~dst_ty:Ty.F64 (Bits.Float pi)));
  (* fpext is value-preserving *)
  let f32_pi = Int32.float_of_bits (Int32.bits_of_float pi) in
  check (Alcotest.float 0.0) "fpext f32->f64" f32_pi
    (Bits.to_float (cast Ast.Fpext ~src_ty:Ty.F32 ~dst_ty:Ty.F64 (Bits.Float f32_pi)));
  (* fptosi rounds towards zero, negative case *)
  check Alcotest.int64 "fptosi -7.9 -> -7"
    (Bits.to_int64 (Bits.truncate Ty.I32 (Bits.Int (-7L))))
    (Bits.to_int64 (cast Ast.Fptosi ~src_ty:Ty.F64 ~dst_ty:Ty.I32 (Bits.Float (-7.9))));
  (* sitofp respects the source's signedness *)
  check (Alcotest.float 0.0) "sitofp i8 0xFF -> -1.0" (-1.0)
    (Bits.to_float (cast Ast.Sitofp ~src_ty:Ty.I8 ~dst_ty:Ty.F64 (Bits.Int 0xFFL)));
  (* sitofp to f32 rounds to single precision *)
  let big = 16777217L (* 2^24 + 1: not representable in f32 *) in
  check (Alcotest.float 0.0) "sitofp i64->f32 rounds" 16777216.0
    (Bits.to_float (cast Ast.Sitofp ~src_ty:Ty.I64 ~dst_ty:Ty.F32 (Bits.Int big)));
  (* bitcast f64<->i64 round-trips the representation *)
  let bits = cast Ast.Bitcast ~src_ty:Ty.F64 ~dst_ty:Ty.I64 (Bits.Float pi) in
  check Alcotest.int64 "bitcast f64->i64" (Int64.bits_of_float pi) (Bits.to_int64 bits);
  check (Alcotest.float 0.0) "bitcast i64->f64 round-trip" pi
    (Bits.to_float (cast Ast.Bitcast ~src_ty:Ty.I64 ~dst_ty:Ty.F64 bits));
  (* bitcast f32<->i32 uses the 32-bit representation *)
  let b32 = cast Ast.Bitcast ~src_ty:Ty.F32 ~dst_ty:Ty.I32 (Bits.Float 1.0) in
  check Alcotest.int64 "bitcast f32->i32" (Int64.of_int32 (Int32.bits_of_float 1.0))
    (Bits.to_int64 b32);
  (* ptrtoint / inttoptr *)
  check Alcotest.int64 "ptrtoint" 0x40L
    (Bits.to_int64 (cast Ast.Ptrtoint ~src_ty:Ty.Ptr ~dst_ty:Ty.I64 (Bits.Int 0x40L)));
  check Alcotest.int64 "inttoptr" 0x40L
    (Bits.to_int64 (cast Ast.Inttoptr ~src_ty:Ty.I64 ~dst_ty:Ty.Ptr (Bits.Int 0x40L)))

let qcheck_bits_add_commutes =
  QCheck.Test.make ~name:"integer add commutes under masking" ~count:500
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      Int64.equal (Bits.Payload.binop Ast.Add Ty.I16 a b) (Bits.Payload.binop Ast.Add Ty.I16 b a))

let qcheck_bits_trunc_idempotent =
  QCheck.Test.make ~name:"truncate is idempotent" ~count:500 QCheck.int64 (fun a ->
      let once = Bits.truncate Ty.I8 (Bits.Int a) in
      Bits.equal once (Bits.truncate Ty.I8 once))

(* --- payload arithmetic against the boxed reference ------------------

   [Bits.Payload] is the one definition of the arithmetic. [Boxed_ref]
   is the boxed implementation as it stood before that rewrite, kept
   here as the reference: for every type, the payload functions (and
   the boxed [Bits.truncate]) must agree with it bit for bit,
   exceptions included. *)
module Boxed_ref = struct
  open Bits

  let of_bool b = Int (if b then 1L else 0L)

  let mask ty i =
    match Ty.bits ty with
    | 64 -> i
    | 0 -> 0L
    | n -> Int64.logand i (Int64.sub (Int64.shift_left 1L n) 1L)

  let round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

  let truncate ty v =
    match (v, ty) with
    | Int i, _ when Ty.is_integer ty || Ty.equal ty Ty.Ptr -> Int (mask ty i)
    | Float f, Ty.F32 -> Float (round_f32 f)
    | _ -> v

  let signed ty i =
    match Ty.bits ty with
    | 64 -> i
    | 0 -> 0L
    | n ->
        let shift = 64 - n in
        Int64.shift_right (Int64.shift_left i shift) shift

  let int_binop op ty a b =
    let open Int64 in
    let sa = signed ty a and sb = signed ty b in
    let shift_amount = to_int (mask ty b) land 63 in
    match (op : Ast.binop) with
    | Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Sdiv -> if equal sb 0L then raise Division_by_zero else div sa sb
    | Udiv -> if equal b 0L then raise Division_by_zero else unsigned_div (mask ty a) (mask ty b)
    | Srem -> if equal sb 0L then raise Division_by_zero else rem sa sb
    | Urem -> if equal b 0L then raise Division_by_zero else unsigned_rem (mask ty a) (mask ty b)
    | Shl -> shift_left a shift_amount
    | Lshr -> shift_right_logical (mask ty a) shift_amount
    | Ashr -> shift_right sa shift_amount
    | And -> logand a b
    | Or -> logor a b
    | Xor -> logxor a b
    | Fadd | Fsub | Fmul | Fdiv | Frem -> invalid_arg "Bits: float binop on integers"

  let float_binop op a b =
    match (op : Ast.binop) with
    | Fadd -> a +. b
    | Fsub -> a -. b
    | Fmul -> a *. b
    | Fdiv -> a /. b
    | Frem -> Float.rem a b
    | _ -> invalid_arg "Bits: integer binop on floats"

  let binop op ty a b =
    if Ty.is_float ty then truncate ty (Float (float_binop op (to_float a) (to_float b)))
    else
      match (a, b) with
      | Int ia, Int ib -> truncate ty (Int (int_binop op ty ia ib))
      | _ -> invalid_arg "Boxed_ref.binop: operand/type mismatch"

  let icmp pred ty a b =
    let a = to_int64 a and b = to_int64 b in
    let sa = signed ty a and sb = signed ty b in
    let ua = mask ty a and ub = mask ty b in
    of_bool
      (match (pred : Ast.icmp) with
      | Ieq -> Int64.equal ua ub
      | Ine -> not (Int64.equal ua ub)
      | Islt -> Int64.compare sa sb < 0
      | Isle -> Int64.compare sa sb <= 0
      | Isgt -> Int64.compare sa sb > 0
      | Isge -> Int64.compare sa sb >= 0
      | Iult -> Int64.unsigned_compare ua ub < 0
      | Iule -> Int64.unsigned_compare ua ub <= 0
      | Iugt -> Int64.unsigned_compare ua ub > 0
      | Iuge -> Int64.unsigned_compare ua ub >= 0)

  let fcmp pred a b =
    let a = to_float a and b = to_float b in
    of_bool
      (match (pred : Ast.fcmp) with
      | Foeq -> a = b
      | Fone -> a <> b && (not (Float.is_nan a)) && not (Float.is_nan b)
      | Folt -> a < b
      | Fole -> a <= b
      | Fogt -> a > b
      | Foge -> a >= b)

  let cast op ~src_ty ~dst_ty v =
    match (op : Ast.cast) with
    | Trunc -> truncate dst_ty (Int (to_int64 v))
    | Zext -> Int (mask src_ty (to_int64 v))
    | Sext -> truncate dst_ty (Int (signed src_ty (to_int64 v)))
    | Fptrunc -> truncate dst_ty (Float (to_float v))
    | Fpext -> Float (to_float v)
    | Fptosi -> truncate dst_ty (Int (Int64.of_float (to_float v)))
    | Sitofp -> truncate dst_ty (Float (Int64.to_float (signed src_ty (to_int64 v))))
    | Bitcast -> (
        match (Ty.is_float src_ty, Ty.is_float dst_ty) with
        | true, false ->
            let f = to_float v in
            let bits =
              if Ty.equal src_ty Ty.F32 then Int64.of_int32 (Int32.bits_of_float f)
              else Int64.bits_of_float f
            in
            truncate dst_ty (Int bits)
        | false, true ->
            let i = to_int64 v in
            if Ty.equal dst_ty Ty.F32 then Float (Int32.float_of_bits (Int64.to_int32 i))
            else Float (Int64.float_of_bits i)
        | _ -> truncate dst_ty v)
    | Ptrtoint -> truncate dst_ty (Int (to_int64 v))
    | Inttoptr -> Int (to_int64 v)
end

let int_tys = [ Ty.I1; Ty.I8; Ty.I16; Ty.I32; Ty.I64; Ty.Ptr ]

let float_tys = [ Ty.F32; Ty.F64 ]

(* integers biased to the edges: zero (division), small values, shift
   amounts at and past the width, extremes *)
let gen_int =
  QCheck.Gen.(
    frequency
      [
        (1, return 0L);
        (2, map Int64.of_int (int_range (-3) 3));
        (2, map Int64.of_int (int_range 60 200));
        (1, oneofl [ Int64.min_int; Int64.max_int; 0xFFFF_FFFFL; 0x8000_0000L; 0xFFL; 0x80L ]);
        (4, ui64);
      ])

(* floats: signed zeros, infinities, NaNs with assorted payloads and
   signs, subnormals, values that round differently in f32, anything *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 0.1; 0.2; 1.0; -1.0 ]);
        ( 1,
          map Int64.float_of_bits
            (oneofl
               [
                 0x7FF0_0000_0000_0001L;
                 0xFFF8_0000_0000_0000L;
                 0x7FF8_DEAD_BEEF_0001L;
                 0xFFF4_0000_0000_0000L;
                 0x0000_0000_0000_0001L;
               ]) );
        (1, map Int64.float_of_bits ui64);
        (1, map (fun x -> Int32.float_of_bits (Int32.bits_of_float x)) (float_range (-1e6) 1e6));
        (2, float_range (-1e6) 1e6);
        (1, float);
      ])

let gen_value ty =
  if Ty.is_float ty then QCheck.Gen.map (fun f -> Bits.Float f) gen_float
  else QCheck.Gen.map (fun i -> Bits.Int i) gen_int

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let show_outcome = function Ok p -> Printf.sprintf "%Lx" p | Error e -> e

(* the reference, the payload function and the boxed function, if there
   is one, agree bit for bit *)
let agree ?boxed name ~reference ~payload =
  let r = outcome (fun () -> Bits.payload (reference ())) in
  let p = outcome payload in
  let b = Option.map (fun boxed -> outcome (fun () -> Bits.payload (boxed ()))) boxed in
  if r = p && Option.fold ~none:true ~some:(( = ) r) b then true
  else
    QCheck.Test.fail_reportf "%s: reference %s, payload %s%s" name (show_outcome r)
      (show_outcome p)
      (Option.fold ~none:"" ~some:(fun b -> ", boxed " ^ show_outcome b) b)

let int_ops =
  Ast.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; Shl; Lshr; Ashr; And; Or; Xor ]

let float_ops = Ast.[ Fadd; Fsub; Fmul; Fdiv; Frem ]

let qcheck_payload_binop =
  let gen =
    QCheck.Gen.(
      oneofl (int_tys @ float_tys) >>= fun ty ->
      oneofl (if Ty.is_float ty then float_ops else int_ops) >>= fun op ->
      pair (gen_value ty) (gen_value ty) >|= fun (a, b) -> (op, ty, a, b))
  in
  QCheck.Test.make ~name:"payload binop = boxed reference" ~count:3000
    (QCheck.make gen ~print:(fun (op, ty, a, b) ->
         Printf.sprintf "%s %s %s %s" (Ast.binop_to_string op) (Ty.to_string ty) (Bits.to_string a)
           (Bits.to_string b)))
    (fun (op, ty, a, b) ->
      agree "binop"
        ~reference:(fun () -> Boxed_ref.binop op ty a b)
        ~payload:(fun () -> Bits.Payload.binop op ty (Bits.payload a) (Bits.payload b)))

let qcheck_payload_compare =
  let icmps = Ast.[ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ] in
  let fcmps = Ast.[ Foeq; Fone; Folt; Fole; Fogt; Foge ] in
  let gen =
    QCheck.Gen.(
      oneofl (int_tys @ float_tys) >>= fun ty ->
      int_bound 9 >>= fun k ->
      pair (gen_value ty) (gen_value ty) >|= fun (a, b) -> (k, ty, a, b))
  in
  QCheck.Test.make ~name:"payload icmp/fcmp = boxed reference" ~count:2000
    (QCheck.make gen ~print:(fun (k, ty, a, b) ->
         Printf.sprintf "%d %s %s %s" k (Ty.to_string ty) (Bits.to_string a) (Bits.to_string b)))
    (fun (k, ty, a, b) ->
      if Ty.is_float ty then
        let pred = List.nth fcmps (k mod List.length fcmps) in
        agree "fcmp"
          ~reference:(fun () -> Boxed_ref.fcmp pred a b)
          ~payload:(fun () -> Bits.Payload.fcmp pred (Bits.payload a) (Bits.payload b))
      else
        let pred = List.nth icmps k in
        agree "icmp"
          ~reference:(fun () -> Boxed_ref.icmp pred ty a b)
          ~payload:(fun () -> Bits.Payload.icmp pred ty (Bits.payload a) (Bits.payload b)))

let qcheck_payload_cast =
  (* each operator with a source of the kind it reads and a destination
     of the kind it writes; bitcast takes any pair *)
  let int_src = Ast.[ Trunc; Zext; Sext; Sitofp; Ptrtoint; Inttoptr ] in
  let float_src = Ast.[ Fptrunc; Fpext; Fptosi ] in
  let dst_kind (op : Ast.cast) =
    match op with
    | Fptrunc | Fpext | Sitofp -> float_tys
    | Trunc | Zext | Sext | Fptosi | Ptrtoint | Inttoptr -> int_tys
    | Bitcast -> int_tys @ float_tys
  in
  let gen =
    QCheck.Gen.(
      oneofl (int_tys @ float_tys) >>= fun src_ty ->
      oneofl (Ast.Bitcast :: (if Ty.is_float src_ty then float_src else int_src)) >>= fun op ->
      oneofl (dst_kind op) >>= fun dst_ty ->
      gen_value src_ty >|= fun v -> (op, src_ty, dst_ty, v))
  in
  QCheck.Test.make ~name:"payload cast = boxed reference" ~count:3000
    (QCheck.make gen ~print:(fun (op, s, d, v) ->
         Printf.sprintf "%s %s->%s %s" (Ast.cast_to_string op) (Ty.to_string s) (Ty.to_string d)
           (Bits.to_string v)))
    (fun (op, src_ty, dst_ty, v) ->
      agree "cast"
        ~reference:(fun () -> Boxed_ref.cast op ~src_ty ~dst_ty v)
        ~payload:(fun () -> Bits.Payload.cast op ~src_ty ~dst_ty (Bits.payload v)))

let qcheck_payload_truncate =
  let gen =
    QCheck.Gen.(oneofl (int_tys @ float_tys) >>= fun ty -> gen_value ty >|= fun v -> (ty, v))
  in
  QCheck.Test.make ~name:"payload truncate = boxed reference" ~count:2000
    (QCheck.make gen ~print:(fun (ty, v) -> Ty.to_string ty ^ " " ^ Bits.to_string v))
    (fun (ty, v) ->
      agree "truncate"
        ~reference:(fun () -> Boxed_ref.truncate ty v)
        ~payload:(fun () -> Bits.Payload.truncate ty (Bits.payload v))
        ~boxed:(fun () -> Bits.truncate ty v))

(* --- builder + verifier -------------------------------------------- *)

let build_add_function () =
  let b = Builder.create ~name:"add2" ~ret_ty:Ty.I32 ~params:[ ("x", Ty.I32); ("y", Ty.I32) ] in
  Builder.add_block b "entry";
  let x, y =
    match Builder.params b with [ x; y ] -> (Ast.Var x, Ast.Var y) | _ -> assert false
  in
  let sum = Builder.binop b Ast.Add x y in
  Builder.ret b (Some sum);
  Builder.finish b

let test_builder_verifies () =
  check Alcotest.int "no problems" 0 (List.length (Verify.func (build_add_function ())))

(* Each block holds its instructions in emission order, also after the
   builder returns to an earlier block; labels stay unique. *)
let test_builder_emission_order () =
  let b = Builder.create ~name:"order" ~ret_ty:Ty.I32 ~params:[ ("x", Ty.I32) ] in
  let x = match Builder.params b with [ x ] -> Ast.Var x | _ -> assert false in
  Builder.add_block b "entry";
  let t1 = Builder.binop b ~name:"t1" Ast.Add x (Builder.ci32 1) in
  let t2 = Builder.binop b ~name:"t2" Ast.Mul t1 (Builder.ci32 2) in
  Builder.add_block b "exit";
  let t3 = Builder.binop b ~name:"t3" Ast.Sub t2 x in
  Builder.set_block b "entry";
  check Alcotest.string "current block" "entry" (Builder.current_label b);
  ignore (Builder.binop b ~name:"t4" Ast.Xor t2 x);
  Builder.br b "exit";
  Builder.set_block b "exit";
  Builder.ret b (Some t3);
  let f = Builder.finish b in
  let names (blk : Ast.block) =
    List.map
      (fun i ->
        match (Ast.defined_var i, i) with
        | Some v, _ -> v.Ast.vname
        | None, Ast.Br l -> "br " ^ l
        | None, _ -> "ret")
      blk.Ast.instrs
  in
  check
    Alcotest.(list (pair string (list string)))
    "blocks in order, instructions in emission order"
    [ ("entry", [ "t1"; "t2"; "t4"; "br exit" ]); ("exit", [ "t3"; "ret" ]) ]
    (List.map (fun (blk : Ast.block) -> (blk.Ast.label, names blk)) f.Ast.blocks);
  check Alcotest.int "verifies" 0 (List.length (Verify.func f));
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Builder.add_block: duplicate label exit") (fun () ->
      Builder.add_block b "exit");
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Builder.set_block: unknown label nowhere") (fun () ->
      Builder.set_block b "nowhere")

let test_verify_catches_missing_terminator () =
  let b = Builder.create ~name:"bad" ~ret_ty:Ty.Void ~params:[] in
  Builder.add_block b "entry";
  ignore (Builder.binop b Ast.Add (Builder.ci32 1) (Builder.ci32 2));
  let f = Builder.finish b in
  check Alcotest.bool "problem reported" true (Verify.func f <> [])

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_verify_catches_type_mismatch () =
  let b = Builder.create ~name:"bad" ~ret_ty:Ty.Void ~params:[] in
  Builder.add_block b "entry";
  let dst = Builder.fresh b "t" Ty.I32 in
  Builder.emit b (Ast.Binop { dst; op = Ast.Add; lhs = Builder.ci32 1; rhs = Builder.ci64 2 });
  Builder.ret b None;
  let f = Builder.finish b in
  check Alcotest.bool "mismatch reported" true
    (List.exists
       (fun (p : Verify.problem) -> contains_substring p.Verify.message "operand types differ")
       (Verify.func f))

let test_verify_catches_use_before_def () =
  let b = Builder.create ~name:"bad" ~ret_ty:Ty.I32 ~params:[] in
  Builder.add_block b "entry";
  let ghost = { Ast.id = 999; vname = "ghost"; ty = Ty.I32 } in
  Builder.ret b (Some (Ast.Var ghost));
  let f = Builder.finish b in
  check Alcotest.bool "undefined use reported" true (Verify.func f <> [])

(* --- printer / parser ----------------------------------------------- *)

let test_roundtrip_simple () =
  let f = build_add_function () in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  let printed = Pp.modul_to_string m in
  let reparsed = Parser.parse_modul printed in
  check Alcotest.string "print/parse/print fixpoint" printed (Pp.modul_to_string reparsed)

let test_roundtrip_workloads () =
  List.iter
    (fun w ->
      let f = Salam_workloads.Workload.compile w in
      let m = { Ast.funcs = [ f ]; globals = [] } in
      let printed = Pp.modul_to_string m in
      let reparsed = Parser.parse_modul printed in
      check Alcotest.string
        ("roundtrip " ^ w.Salam_workloads.Workload.name)
        printed (Pp.modul_to_string reparsed))
    (Salam_workloads.Suite.quick ())

let test_parser_rejects_garbage () =
  Alcotest.check_raises "unknown opcode"
    (Parser.Error "line 3: unknown opcode frobnicate")
    (fun () ->
      ignore
        (Parser.parse_modul "define void @f() {\nentry:\n  %x.1 = frobnicate i32 1, 2\n}"))

let test_parse_globals () =
  let m = Parser.parse_modul "@tab = global i32 x 4 [ 1, 2, 3, 4 ]\ndefine void @f() {\nentry:\n  ret void\n}" in
  match m.Ast.globals with
  | [ g ] ->
      check Alcotest.string "name" "tab" g.Ast.gname;
      check Alcotest.int "elements" 4 g.Ast.elements
  | _ -> Alcotest.fail "expected one global"

(* --- CFG ------------------------------------------------------------ *)

let diamond () =
  let b = Builder.create ~name:"diamond" ~ret_ty:Ty.I32 ~params:[ ("c", Ty.I1) ] in
  Builder.add_block b "entry";
  let c = match Builder.params b with [ c ] -> Ast.Var c | _ -> assert false in
  Builder.cond_br b c "left" "right";
  Builder.add_block b "left";
  Builder.br b "join";
  Builder.add_block b "right";
  Builder.br b "join";
  Builder.add_block b "join";
  let phi =
    Builder.phi b Ty.I32 [ (Builder.ci32 1, "left"); (Builder.ci32 2, "right") ]
  in
  Builder.ret b (Some phi);
  Builder.finish b

let test_cfg_dominators () =
  let f = diamond () in
  let cfg = Cfg.build f in
  let entry = Cfg.index_of_label cfg "entry" in
  let left = Cfg.index_of_label cfg "left" in
  let join = Cfg.index_of_label cfg "join" in
  check Alcotest.bool "entry dominates join" true (Cfg.dominates cfg entry join);
  check Alcotest.bool "left does not dominate join" false (Cfg.dominates cfg left join);
  check (Alcotest.option Alcotest.int) "idom(join) = entry" (Some entry) (Cfg.idom cfg join)

let test_cfg_frontier_and_back_edges () =
  let f = diamond () in
  let cfg = Cfg.build f in
  let left = Cfg.index_of_label cfg "left" in
  let join = Cfg.index_of_label cfg "join" in
  check (Alcotest.list Alcotest.int) "frontier(left) = [join]" [ join ]
    (Cfg.dominance_frontier cfg left);
  check Alcotest.int "no back edges in a diamond" 0 (List.length (Cfg.back_edges cfg));
  (* a loop has one *)
  let w = Salam_workloads.Gemm.workload ~n:4 () in
  let g = Salam_workloads.Workload.compile w in
  check Alcotest.bool "gemm has back edges" true (Cfg.back_edges (Cfg.build g) <> [])

(* --- memory ---------------------------------------------------------- *)

let test_memory_types_roundtrip () =
  let mem = Memory.create ~size:4096 in
  Memory.store mem Ty.I8 16L (Bits.Int 0xABL);
  check Alcotest.int64 "i8" 0xABL (Bits.to_int64 (Memory.load mem Ty.I8 16L));
  Memory.store mem Ty.I16 32L (Bits.Int 0x1234L);
  check Alcotest.int64 "i16" 0x1234L (Bits.to_int64 (Memory.load mem Ty.I16 32L));
  Memory.store mem Ty.I32 64L (Bits.Int 0xDEADBEEFL);
  check Alcotest.int64 "i32" 0xDEADBEEFL
    (Int64.logand (Bits.to_int64 (Memory.load mem Ty.I32 64L)) 0xFFFFFFFFL);
  Memory.store mem Ty.F64 128L (Bits.Float 3.25);
  check (Alcotest.float 0.0) "f64" 3.25 (Bits.to_float (Memory.load mem Ty.F64 128L));
  Memory.store mem Ty.F32 256L (Bits.Float 1.5);
  check (Alcotest.float 0.0) "f32" 1.5 (Bits.to_float (Memory.load mem Ty.F32 256L))

let test_memory_little_endian () =
  let mem = Memory.create ~size:64 in
  Memory.store mem Ty.I32 8L (Bits.Int 0x11223344L);
  check Alcotest.int64 "low byte first" 0x44L (Bits.to_int64 (Memory.load mem Ty.I8 8L))

let test_memory_bounds () =
  let mem = Memory.create ~size:64 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Memory: access at 60 size 8 out of bounds") (fun () ->
      ignore (Memory.load mem Ty.I64 60L))

let test_memory_alloc () =
  let mem = Memory.create ~size:4096 in
  let a = Memory.alloc mem ~bytes:10 ~align:8 in
  let b = Memory.alloc mem ~bytes:10 ~align:8 in
  check Alcotest.bool "non-null, aligned, disjoint" true
    (Int64.compare a 0L > 0
    && Int64.rem a 8L = 0L
    && Int64.rem b 8L = 0L
    && Int64.compare b (Int64.add a 10L) >= 0)

let test_memory_snapshot_restore () =
  let mem = Memory.create ~size:256 in
  let a = Memory.alloc mem ~bytes:16 ~align:8 in
  Memory.store mem Ty.I64 a (Bits.Int 0xDEADL);
  let snap = Memory.snapshot mem in
  Memory.store mem Ty.I64 a (Bits.Int 0xBEEFL);
  check Alcotest.int64 "overwritten" 0xBEEFL (Bits.to_int64 (Memory.load mem Ty.I64 a));
  Memory.restore mem snap;
  check Alcotest.int64 "restored" 0xDEADL (Bits.to_int64 (Memory.load mem Ty.I64 a));
  let other = Memory.create ~size:128 in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Memory.restore: snapshot size does not match memory size") (fun () ->
      Memory.restore other snap)

(* Regression: snapshots must capture allocation state. Restoring into a
   fresh memory without [brk] would hand out overlapping buffers. *)
let test_memory_snapshot_brk () =
  let mem = Memory.create ~size:256 in
  let a = Memory.alloc mem ~bytes:16 ~align:8 in
  Memory.store mem Ty.I64 a (Bits.Int 7L);
  let snap = Memory.snapshot mem in
  let fresh = Memory.create ~size:256 in
  Memory.restore fresh snap;
  let b = Memory.alloc fresh ~bytes:16 ~align:8 in
  check Alcotest.bool "post-restore alloc does not overlap pre-snapshot buffer" true
    (Int64.compare b (Int64.add a 16L) >= 0);
  check Alcotest.int64 "contents carried over" 7L (Bits.to_int64 (Memory.load fresh Ty.I64 a));
  check Alcotest.int "brk accessor" (Int64.to_int a + 16) (Memory.snapshot_brk snap);
  (* zero-extended equality: growing the physical prefix with zero
     stores must not change the snapshot's identity *)
  let grown = Memory.create ~size:256 in
  Memory.restore grown snap;
  Memory.store grown Ty.I64 200L (Bits.Int 0L);
  check Alcotest.bool "snapshot_equal zero-extended" true
    (Memory.snapshot_equal snap (Memory.snapshot grown));
  Memory.store grown Ty.I64 200L (Bits.Int 1L);
  check Alcotest.bool "snapshot_equal detects difference" false
    (Memory.snapshot_equal snap (Memory.snapshot grown))

(* A snapshot stores the contents up to the last non-zero byte: a memory
   holding only zeros stores none, and restores to zeros. *)
let test_memory_snapshot_all_zero () =
  let mem = Memory.create ~size:(1 lsl 16) in
  Memory.fill mem 0L (1 lsl 16) '\000';
  let snap = Memory.snapshot mem in
  check Alcotest.int "an all-zero snapshot stores no bytes" 0 (Memory.snapshot_bytes snap);
  let used = Memory.create ~size:(1 lsl 16) in
  Memory.fill used 0L (1 lsl 16) '\xff';
  Memory.restore used snap;
  check Alcotest.bool "restores to zeros" true
    (Bytes.for_all (( = ) '\000') (Memory.load_bytes used 0L (1 lsl 16)));
  check Alcotest.bool "equal to a fresh memory's snapshot" true
    (Memory.snapshot_equal snap (Memory.snapshot (Memory.create ~size:(1 lsl 16))))

(* Restoring a short snapshot into a memory whose physical prefix has
   grown further zeroes every byte past the stored ones. *)
let test_memory_snapshot_short_restore () =
  let size = 1 lsl 16 in
  let mem = Memory.create ~size in
  Memory.store mem Ty.I32 96L (Bits.Int 0x01020304L);
  let snap = Memory.snapshot mem in
  check Alcotest.int "stored up to the last non-zero byte" 100 (Memory.snapshot_bytes snap);
  let long = Memory.create ~size in
  Memory.fill long 0L size '\x5a';
  Memory.restore long snap;
  check Alcotest.int64 "stored word restored" 0x01020304L
    (Bits.to_int64 (Memory.load long Ty.I32 96L));
  check Alcotest.bool "zeros past the stored bytes" true
    (Bytes.for_all (( = ) '\000') (Memory.load_bytes long 100L (size - 100)));
  check Alcotest.bool "zeros before them" true
    (Bytes.for_all (( = ) '\000') (Memory.load_bytes long 0L 96))

(* --- interpreter ------------------------------------------------------ *)

let factorial_func () =
  let open Salam_frontend.Lang in
  kernel "fact" ~ret:Ty.I32
    ~params:[ scalar "n" Ty.I32 ]
    [
      decl Ty.I32 "acc" (i 1);
      for_ "k" (i 2) (v "n" +: i 1) [ assign "acc" (v "acc" *: v "k") ];
      Return (Some (v "acc"));
    ]

let test_interp_factorial () =
  let f = Salam_frontend.Compile.kernel (factorial_func ()) in
  let mem = Memory.create ~size:1024 in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  match Interp.run mem m ~entry:"fact" ~args:[ Bits.Int 6L ] with
  | Some (Bits.Int r) -> check Alcotest.int64 "6! = 720" 720L r
  | _ -> Alcotest.fail "expected an integer result"

let test_interp_out_of_fuel () =
  let b = Builder.create ~name:"spin" ~ret_ty:Ty.Void ~params:[] in
  Builder.add_block b "entry";
  Builder.br b "entry";
  let f = Builder.finish b in
  let mem = Memory.create ~size:64 in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  Alcotest.check_raises "fuel exhausted" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run ~fuel:100 mem m ~entry:"spin" ~args:[]))

let test_interp_division_trap () =
  let b = Builder.create ~name:"div" ~ret_ty:Ty.I32 ~params:[ ("x", Ty.I32) ] in
  Builder.add_block b "entry";
  let x = match Builder.params b with [ x ] -> Ast.Var x | _ -> assert false in
  let q = Builder.binop b Ast.Sdiv (Builder.ci32 10) x in
  Builder.ret b (Some q);
  let f = Builder.finish b in
  let mem = Memory.create ~size:64 in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  (* The trap must locate the fault: function, block, and the offending
     instruction, so a user can find it without a debugger. *)
  (try
     ignore (Interp.run mem m ~entry:"div" ~args:[ Bits.Int 0L ]);
     Alcotest.fail "expected a division-by-zero trap"
   with Interp.Trap msg ->
     let has needle =
       let n = String.length needle and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
       go 0
     in
     check Alcotest.bool "mentions division" true (has "division by zero");
     check Alcotest.bool "names the function" true (has "@div");
     check Alcotest.bool "names the block" true (has "%entry");
     check Alcotest.bool "shows the instruction" true (has "sdiv"))

let test_interp_intrinsics () =
  let b = Builder.create ~name:"root" ~ret_ty:Ty.F64 ~params:[ ("x", Ty.F64) ] in
  Builder.add_block b "entry";
  let x = match Builder.params b with [ x ] -> Ast.Var x | _ -> assert false in
  let r = Option.get (Builder.call b Ty.F64 "sqrt" [ x ]) in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  let mem = Memory.create ~size:64 in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  match Interp.run mem m ~entry:"root" ~args:[ Bits.Float 9.0 ] with
  | Some (Bits.Float r) -> check (Alcotest.float 1e-12) "sqrt 9" 3.0 r
  | _ -> Alcotest.fail "expected a float"

let test_interp_globals () =
  let src =
    "@tab = global i32 x 4 [ 10, 20, 30, 40 ]\n\
     define i32 @sum(ptr %p.0) {\n\
     entry:\n\
     \  %a.1 = load i32, ptr %p.0\n\
     \  %q.2 = gep ptr %p.0, 4 x i32 3\n\
     \  %b.3 = load i32, ptr %q.2\n\
     \  %r.4 = add i32 %a.1, %b.3\n\
     \  ret i32 %r.4\n\
     }"
  in
  let m = Parser.parse_modul src in
  Verify.check_exn m;
  (* the interpreter materialises globals at deterministic addresses; we
     reach the table through a pointer parameter set to its address by
     allocating in the same order *)
  let mem = Memory.create ~size:4096 in
  let expected_base = Memory.alloc (Memory.create ~size:4096) ~bytes:16 ~align:8 in
  match Interp.run mem m ~entry:"sum" ~args:[ Bits.Int expected_base ] with
  | Some (Bits.Int r) -> check Alcotest.int64 "tab[0] + tab[3]" 50L r
  | _ -> Alcotest.fail "expected integer"

(* Edge cases of the interpreter's checks, on hand-written (unverified)
   modules: each must fail loudly with the same message every time. *)
let run_src ?fuel ?on_exec src ~entry ~args =
  Interp.run ?fuel ?on_exec (Memory.create ~size:4096) (Parser.parse_modul src) ~entry ~args

let check_trap name expected src ~entry ~args =
  Alcotest.check_raises name (Interp.Trap expected) (fun () -> ignore (run_src src ~entry ~args))

let test_interp_unset_register () =
  check_trap "unset register" "f: read of unset register z.2"
    "define i32 @f(i32 %x.0) {\n\
     entry:\n\
    \  %y.1 = add i32 %x.0, %z.2\n\
    \  ret i32 %y.1\n\
     later:\n\
    \  %z.2 = add i32 %x.0, 1\n\
    \  ret i32 %z.2\n\
     }"
    ~entry:"f" ~args:[ Bits.Int 1L ]

let test_interp_phi_missing_edge () =
  check_trap "phi without an incoming for the edge taken"
    "phi in next has no incoming for predecessor entry"
    "define i32 @f() {\n\
     entry:\n\
    \  br label %next\n\
     next:\n\
    \  %p.0 = phi i32 [ 1, %other ]\n\
    \  ret i32 %p.0\n\
     other:\n\
    \  br label %next\n\
     }"
    ~entry:"f" ~args:[]

let test_interp_null_store () =
  check_trap "null store" "null pointer store"
    "define void @f() {\nentry:\n  store i32 1, ptr null\n  ret void\n}" ~entry:"f" ~args:[]

let test_interp_stack_overflow () =
  check_trap "unbounded recursion" "call stack overflow"
    "define void @f() {\nentry:\n  call void @f()\n  ret void\n}" ~entry:"f" ~args:[]

(* [fuel] bounds executed instructions exactly: phis and terminators
   count, a program of N instructions runs on N and stops on N - 1 *)
let test_interp_fuel_exact () =
  let f = Salam_frontend.Compile.kernel (factorial_func ()) in
  let m = { Ast.funcs = [ f ]; globals = [] } in
  let run ?on_exec fuel =
    Interp.run ?on_exec ~fuel (Memory.create ~size:1024) m ~entry:"fact" ~args:[ Bits.Int 6L ]
  in
  let n = ref 0 in
  ignore (run ~on_exec:(fun _ -> incr n) 1_000_000);
  check Alcotest.bool "loop runs more than a block" true (!n > 20);
  (match run !n with
  | Some (Bits.Int r) -> check Alcotest.int64 "fuel N completes" 720L r
  | _ -> Alcotest.fail "expected an integer result");
  Alcotest.check_raises "fuel N - 1 runs out" Interp.Out_of_fuel (fun () ->
      ignore (run (!n - 1)))

(* an f32 register holds its value rounded to single precision, whatever
   produced it: a parameter, an arithmetic result or an intrinsic's f64 *)
let test_interp_f32_rounding () =
  let round x = Int32.float_of_bits (Int32.bits_of_float x) in
  let src =
    "define float @f(float %x.0) {\n\
     entry:\n\
    \  %y.1 = fadd float %x.0, 0.2\n\
    \  %s.2 = call float @sqrt(float %y.1)\n\
    \  ret float %s.2\n\
     }"
  in
  let y = round (round 0.1 +. round 0.2) in
  match run_src src ~entry:"f" ~args:[ Bits.Float 0.1 ] with
  | Some (Bits.Float r) ->
      check (Alcotest.float 0.0) "sqrt result rounded to f32" (round (sqrt y)) r;
      check Alcotest.bool "differs from the f64 result" true (r <> sqrt y)
  | _ -> Alcotest.fail "expected a float"

let suite =
  [
    Alcotest.test_case "ty roundtrip" `Quick test_ty_roundtrip;
    Alcotest.test_case "ty sizes" `Quick test_ty_sizes;
    Alcotest.test_case "bits masking" `Quick test_bits_masking;
    Alcotest.test_case "bits signed/unsigned" `Quick test_bits_signed_unsigned_compare;
    Alcotest.test_case "bits f32 rounding" `Quick test_bits_f32_rounding;
    Alcotest.test_case "bits div by zero" `Quick test_bits_division_by_zero;
    Alcotest.test_case "bits casts" `Quick test_bits_casts;
    Alcotest.test_case "bits every cast op" `Quick test_bits_every_cast;
    Alcotest.test_case "memory snapshot/restore" `Quick test_memory_snapshot_restore;
    Alcotest.test_case "memory snapshot brk" `Quick test_memory_snapshot_brk;
    Alcotest.test_case "memory snapshot of zeros is empty" `Quick test_memory_snapshot_all_zero;
    Alcotest.test_case "memory short snapshot zeroes the rest" `Quick
      test_memory_snapshot_short_restore;
    QCheck_alcotest.to_alcotest qcheck_bits_add_commutes;
    QCheck_alcotest.to_alcotest qcheck_bits_trunc_idempotent;
    QCheck_alcotest.to_alcotest qcheck_payload_binop;
    QCheck_alcotest.to_alcotest qcheck_payload_compare;
    QCheck_alcotest.to_alcotest qcheck_payload_cast;
    QCheck_alcotest.to_alcotest qcheck_payload_truncate;
    Alcotest.test_case "builder output verifies" `Quick test_builder_verifies;
    Alcotest.test_case "builder emission order across blocks" `Quick test_builder_emission_order;
    Alcotest.test_case "verify missing terminator" `Quick test_verify_catches_missing_terminator;
    Alcotest.test_case "verify type mismatch" `Quick test_verify_catches_type_mismatch;
    Alcotest.test_case "verify use before def" `Quick test_verify_catches_use_before_def;
    Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip workloads" `Quick test_roundtrip_workloads;
    Alcotest.test_case "parser rejects garbage" `Quick test_parser_rejects_garbage;
    Alcotest.test_case "parse globals" `Quick test_parse_globals;
    Alcotest.test_case "cfg dominators" `Quick test_cfg_dominators;
    Alcotest.test_case "cfg frontier/back edges" `Quick test_cfg_frontier_and_back_edges;
    Alcotest.test_case "memory typed access" `Quick test_memory_types_roundtrip;
    Alcotest.test_case "memory endianness" `Quick test_memory_little_endian;
    Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
    Alcotest.test_case "memory alloc" `Quick test_memory_alloc;
    Alcotest.test_case "interp factorial" `Quick test_interp_factorial;
    Alcotest.test_case "interp out of fuel" `Quick test_interp_out_of_fuel;
    Alcotest.test_case "interp division trap" `Quick test_interp_division_trap;
    Alcotest.test_case "interp intrinsics" `Quick test_interp_intrinsics;
    Alcotest.test_case "interp globals" `Quick test_interp_globals;
    Alcotest.test_case "interp unset register" `Quick test_interp_unset_register;
    Alcotest.test_case "interp phi missing edge" `Quick test_interp_phi_missing_edge;
    Alcotest.test_case "interp null store" `Quick test_interp_null_store;
    Alcotest.test_case "interp call stack overflow" `Quick test_interp_stack_overflow;
    Alcotest.test_case "interp fuel is exact" `Quick test_interp_fuel_exact;
    Alcotest.test_case "interp f32 rounding" `Quick test_interp_f32_rounding;
  ]
