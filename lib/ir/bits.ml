type t = Int of int64 | Float of float

(* The arithmetic is defined once, over raw 64-bit payloads: integers as
   their int64, floats (f32 included, held at its rounded value) as the
   IEEE-754 image of the double. The engine and the interpreter keep
   values in that form; the boxed functions below convert to and from
   it. Every function here is [@inline]: a payload that crosses a call
   boundary is boxed, one inlined into its caller stays in a register.
   For the same reason an intermediate result that is a [match] or an
   [if] is bound with [let] before it is passed on: the compiler unboxes
   an int64 [let] but not the parameter binding that inlining makes. *)
module Payload = struct
  let[@inline] mask ty i =
    match Ty.bits ty with
    | 64 -> i
    | 0 -> 0L
    | n -> Int64.logand i (Int64.sub (Int64.shift_left 1L n) 1L)

  let[@inline] signed ty i =
    match Ty.bits ty with
    | 64 -> i
    | 0 -> 0L
    | n ->
        let shift = 64 - n in
        Int64.shift_right (Int64.shift_left i shift) shift

  let[@inline] to_float p = Int64.float_of_bits p

  let[@inline] of_float f = Int64.bits_of_float f

  let[@inline] round_f32 p =
    of_float (Int32.float_of_bits (Int32.bits_of_float (to_float p)))

  let[@inline] truncate (ty : Ty.t) p =
    match ty with
    | I1 | I8 | I16 | I32 | I64 | Ptr -> mask ty p
    | F32 -> round_f32 p
    | F64 | Void -> p

  let[@inline] of_bool b = if b then 1L else 0L

  let[@inline] to_bool ty (p : int64) = if Ty.is_float ty then to_float p <> 0.0 else p <> 0L

  (* unsigned order is signed order with the sign bit flipped *)
  let[@inline] flip i = Int64.logxor i Int64.min_int

  (* [Int64.unsigned_div]/[unsigned_rem], restated so they inline: a
     branch that calls out returns a boxed int64, and then every branch
     of [int_binop] boxes its result. [d] is non-zero. *)
  let[@inline] udiv n d =
    if d < 0L then if flip n < flip d then 0L else 1L
    else
      let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
      let r = Int64.sub n (Int64.mul q d) in
      if flip r >= flip d then Int64.succ q else q

  let[@inline] urem n d = Int64.sub n (Int64.mul (udiv n d) d)

  let[@inline] int_binop (op : Ast.binop) ty a b =
    let open Int64 in
    match op with
    | Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Sdiv ->
        let sb = signed ty b in
        if equal sb 0L then raise Division_by_zero else div (signed ty a) sb
    | Udiv -> if equal b 0L then raise Division_by_zero else udiv (mask ty a) (mask ty b)
    | Srem ->
        let sb = signed ty b in
        if equal sb 0L then raise Division_by_zero else rem (signed ty a) sb
    | Urem -> if equal b 0L then raise Division_by_zero else urem (mask ty a) (mask ty b)
    | Shl -> shift_left a (to_int (mask ty b) land 63)
    | Lshr -> shift_right_logical (mask ty a) (to_int (mask ty b) land 63)
    | Ashr -> shift_right (signed ty a) (to_int (mask ty b) land 63)
    | And -> logand a b
    | Or -> logor a b
    | Xor -> logxor a b
    | Fadd | Fsub | Fmul | Fdiv | Frem -> invalid_arg "Bits: float binop on integers"

  let[@inline] float_binop (op : Ast.binop) a b =
    let a = to_float a and b = to_float b in
    let r =
      match op with
      | Fadd -> a +. b
      | Fsub -> a -. b
      | Fmul -> a *. b
      | Fdiv -> a /. b
      | Frem -> Float.rem a b
      | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem | Shl | Lshr | Ashr | And | Or | Xor ->
          invalid_arg "Bits: integer binop on floats"
    in
    of_float r

  let[@inline] binop op ty a b =
    if Ty.is_float ty then
      let r = float_binop op a b in
      truncate ty r
    else
      let r = int_binop op ty a b in
      truncate ty r

  let[@inline] icmp (pred : Ast.icmp) ty (a : int64) (b : int64) =
    of_bool
      (match pred with
      | Ieq -> mask ty a = mask ty b
      | Ine -> mask ty a <> mask ty b
      | Islt -> signed ty a < signed ty b
      | Isle -> signed ty a <= signed ty b
      | Isgt -> signed ty a > signed ty b
      | Isge -> signed ty a >= signed ty b
      | Iult -> flip (mask ty a) < flip (mask ty b)
      | Iule -> flip (mask ty a) <= flip (mask ty b)
      | Iugt -> flip (mask ty a) > flip (mask ty b)
      | Iuge -> flip (mask ty a) >= flip (mask ty b))

  let[@inline] fcmp (pred : Ast.fcmp) (a : int64) (b : int64) =
    let a = to_float a and b = to_float b in
    of_bool
      (match pred with
      | Foeq -> a = b
      | Fone -> a <> b && (not (Float.is_nan a)) && not (Float.is_nan b)
      | Folt -> a < b
      | Fole -> a <= b
      | Fogt -> a > b
      | Foge -> a >= b)

  let[@inline] cast (op : Ast.cast) ~src_ty ~dst_ty p =
    match op with
    | Trunc | Fptrunc | Ptrtoint -> truncate dst_ty p
    | Zext -> mask src_ty p
    | Sext ->
        let s = signed src_ty p in
        truncate dst_ty s
    | Fpext | Inttoptr -> p
    | Fptosi -> truncate dst_ty (Int64.of_float (to_float p))
    | Sitofp ->
        let s = signed src_ty p in
        truncate dst_ty (of_float (Int64.to_float s))
    | Bitcast -> (
        match (Ty.is_float src_ty, Ty.is_float dst_ty) with
        | true, false ->
            let bits =
              if Ty.equal src_ty Ty.F32 then Int64.of_int32 (Int32.bits_of_float (to_float p))
              else p
            in
            truncate dst_ty bits
        | false, true ->
            if Ty.equal dst_ty Ty.F32 then of_float (Int32.float_of_bits (Int64.to_int32 p))
            else p
        | _ -> truncate dst_ty p)
end

let[@inline] payload = function Int i -> i | Float f -> Int64.bits_of_float f

let[@inline] of_payload ty p = if Ty.is_float ty then Float (Int64.float_of_bits p) else Int p

let to_bool = function Int i -> not (Int64.equal i 0L) | Float f -> f <> 0.0

let to_float = function Float f -> f | Int i -> Int64.to_float i

let payload_as ty v = if Ty.is_float ty then Int64.bits_of_float (to_float v) else payload v

let signed = Payload.signed

(* A value that already fits its type (memory loads, re-truncated
   commits) comes back unchanged instead of reboxed. *)
let truncate ty v =
  match v with
  | Int i when Ty.is_integer ty || Ty.equal ty Ty.Ptr ->
      let m = Payload.mask ty i in
      if Int64.equal m i then v else Int m
  | Float f when Ty.equal ty Ty.F32 ->
      let p = Int64.bits_of_float f in
      let r = Payload.round_f32 p in
      if Int64.equal r p then v else Float (Int64.float_of_bits r)
  | Int _ | Float _ -> v

let to_int64 = function
  | Int i -> i
  | Float _ -> invalid_arg "Bits.to_int64: float value"

let equal a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Int _, Float _ | Float _, Int _ -> false

let to_string = function
  | Int i -> Int64.to_string i
  | Float f -> Printf.sprintf "%h" f
