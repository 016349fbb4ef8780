open Salam_ir

type cls =
  | Int_adder
  | Int_multiplier
  | Int_divider
  | Shifter
  | Bitwise
  | Mux
  | Converter
  | Fp_add_sp
  | Fp_add_dp
  | Fp_mul_sp
  | Fp_mul_dp
  | Fp_div_sp
  | Fp_div_dp
  | Fp_special

let all =
  [
    Int_adder;
    Int_multiplier;
    Int_divider;
    Shifter;
    Bitwise;
    Mux;
    Converter;
    Fp_add_sp;
    Fp_add_dp;
    Fp_mul_sp;
    Fp_mul_dp;
    Fp_div_sp;
    Fp_div_dp;
    Fp_special;
  ]

let to_string = function
  | Int_adder -> "int_adder"
  | Int_multiplier -> "int_multiplier"
  | Int_divider -> "int_divider"
  | Shifter -> "shifter"
  | Bitwise -> "bitwise"
  | Mux -> "mux"
  | Converter -> "converter"
  | Fp_add_sp -> "fp_add_sp"
  | Fp_add_dp -> "fp_add_dp"
  | Fp_mul_sp -> "fp_mul_sp"
  | Fp_mul_dp -> "fp_mul_dp"
  | Fp_div_sp -> "fp_div_sp"
  | Fp_div_dp -> "fp_div_dp"
  | Fp_special -> "fp_special"

(* dense index for array-backed per-class state in hot loops *)
let index = function
  | Int_adder -> 0
  | Int_multiplier -> 1
  | Int_divider -> 2
  | Shifter -> 3
  | Bitwise -> 4
  | Mux -> 5
  | Converter -> 6
  | Fp_add_sp -> 7
  | Fp_add_dp -> 8
  | Fp_mul_sp -> 9
  | Fp_mul_dp -> 10
  | Fp_div_sp -> 11
  | Fp_div_dp -> 12
  | Fp_special -> 13

let count = 14

(* constructor order, as [Stdlib.compare] orders constant constructors,
   without its generic walk *)
let compare a b = Int.compare (index a) (index b)

let is_fp = function
  | Fp_add_sp | Fp_add_dp | Fp_mul_sp | Fp_mul_dp | Fp_div_sp | Fp_div_dp
  | Fp_special ->
      true
  | Int_adder | Int_multiplier | Int_divider | Shifter | Bitwise | Mux | Converter
    ->
      false

let fp_variant ty single double =
  match (ty : Ty.t) with
  | Ty.F32 -> single
  | _ -> double

let of_instr (instr : Ast.instr) =
  match instr with
  | Ast.Binop { op; dst; _ } -> begin
      match op with
      | Ast.Add | Ast.Sub -> Some Int_adder
      | Ast.Mul -> Some Int_multiplier
      | Ast.Sdiv | Ast.Udiv | Ast.Srem | Ast.Urem -> Some Int_divider
      | Ast.Shl | Ast.Lshr | Ast.Ashr -> Some Shifter
      | Ast.And | Ast.Or | Ast.Xor -> Some Bitwise
      | Ast.Fadd | Ast.Fsub -> Some (fp_variant dst.ty Fp_add_sp Fp_add_dp)
      | Ast.Fmul -> Some (fp_variant dst.ty Fp_mul_sp Fp_mul_dp)
      | Ast.Fdiv | Ast.Frem -> Some (fp_variant dst.ty Fp_div_sp Fp_div_dp)
    end
  | Ast.Icmp _ -> Some Int_adder
  | Ast.Fcmp { lhs; _ } -> Some (fp_variant (Ast.value_ty lhs) Fp_add_sp Fp_add_dp)
  | Ast.Select _ -> Some Mux
  | Ast.Cast { op; _ } -> begin
      match op with
      | Ast.Bitcast | Ast.Ptrtoint | Ast.Inttoptr -> None (* wiring only *)
      | Ast.Trunc | Ast.Zext | Ast.Sext | Ast.Fptrunc | Ast.Fpext | Ast.Fptosi | Ast.Sitofp ->
          Some Converter
    end
  | Ast.Gep { offsets; _ } -> if offsets = [] then None else Some Int_adder
  | Ast.Call _ -> Some Fp_special
  | Ast.Load _ | Ast.Store _ | Ast.Phi _ | Ast.Alloca _ | Ast.Br _ | Ast.Cond_br _
  | Ast.Ret _ ->
      None

module Map = Map.Make (struct
  type t = cls

  let compare = compare
end)
