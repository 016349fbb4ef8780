open Salam_ir
open Ast

let const_of_payload ty p : value =
  if Ty.is_float ty then Const (Cfloat (ty, Int64.float_of_bits p)) else Const (Cint (ty, p))

let as_const = function
  | Const (Cint (_, i)) -> Some (Bits.Int i)
  | Const (Cfloat (_, x)) -> Some (Bits.Float x)
  | Const Cnull -> Some (Bits.Int 0L)
  | Var _ -> None

let is_int_const n = function Const (Cint (_, i)) -> Int64.equal i (Int64.of_int n) | _ -> false

(* Try to replace one instruction by a value. *)
let fold_instr instr : value option =
  match instr with
  | Binop { dst; op; lhs; rhs } -> begin
      match (as_const lhs, as_const rhs) with
      | Some a, Some b -> (
          let a = Bits.payload_as dst.ty a and b = Bits.payload_as dst.ty b in
          try Some (const_of_payload dst.ty (Bits.Payload.binop op dst.ty a b))
          with Division_by_zero -> None)
      | _ ->
          if Ty.is_integer dst.ty then begin
            match op with
            | Add -> if is_int_const 0 rhs then Some lhs else if is_int_const 0 lhs then Some rhs else None
            | Sub -> if is_int_const 0 rhs then Some lhs else None
            | Mul ->
                if is_int_const 1 rhs then Some lhs
                else if is_int_const 1 lhs then Some rhs
                else if is_int_const 0 rhs || is_int_const 0 lhs then
                  Some (Const (Cint (dst.ty, 0L)))
                else None
            | Shl | Lshr | Ashr -> if is_int_const 0 rhs then Some lhs else None
            | Or | Xor -> if is_int_const 0 rhs then Some lhs else None
            | And -> if is_int_const 0 rhs then Some (Const (Cint (dst.ty, 0L))) else None
            | Sdiv | Udiv | Srem | Urem | Fadd | Fsub | Fmul | Fdiv | Frem -> None
          end
          else None
    end
  | Icmp { pred; lhs; rhs; _ } -> begin
      match (as_const lhs, as_const rhs) with
      | Some a, Some b ->
          let ty = value_ty lhs in
          Some
            (const_of_payload Ty.I1
               (Bits.Payload.icmp pred ty (Bits.payload_as ty a) (Bits.payload_as ty b)))
      | _ -> None
    end
  | Fcmp { pred; lhs; rhs; _ } -> begin
      match (as_const lhs, as_const rhs) with
      | Some a, Some b ->
          let ty = value_ty lhs in
          Some
            (const_of_payload Ty.I1
               (Bits.Payload.fcmp pred (Bits.payload_as ty a) (Bits.payload_as ty b)))
      | _ -> None
    end
  | Cast { dst; op; src } -> begin
      match as_const src with
      | Some v ->
          Some
            (const_of_payload dst.ty
               (Bits.Payload.cast op ~src_ty:(value_ty src) ~dst_ty:dst.ty (Bits.payload v)))
      | None -> None
    end
  | Select { cond; if_true; if_false; _ } -> begin
      match as_const cond with
      | Some c -> Some (if Bits.to_bool c then if_true else if_false)
      | None -> None
    end
  | Load _ | Store _ | Gep _ | Phi _ | Alloca _ | Call _ | Br _ | Cond_br _ | Ret _ -> None

let remove_phi_edge (f : func) ~target ~from_label =
  match find_block f target with
  | None -> ()
  | Some b ->
      b.instrs <-
        List.map
          (fun instr ->
            match instr with
            | Phi r -> Phi { r with incoming = List.filter (fun (_, l) -> l <> from_label) r.incoming }
            | _ -> instr)
          b.instrs

(* Fold constant binops/compares/casts/selects, simplify algebraic
   identities (x+0, x*1, x*0, x-x) and conditional branches whose
   condition is constant. *)
let constant_fold (f : func) =
  let changed = ref 0 in
  let subst = Subst.create () in
  List.iter
    (fun b ->
      b.instrs <-
        List.filter_map
          (fun instr ->
            let instr = Subst.rewrite_instr subst instr in
            match fold_instr instr with
            | Some v ->
                (match defined_var instr with
                | Some dst -> Subst.add subst dst (Subst.resolve subst v)
                | None -> ());
                incr changed;
                None
            | None -> Some instr)
          b.instrs)
    f.blocks;
  Subst.apply subst f;
  (* fold conditional branches on constants *)
  List.iter
    (fun b ->
      b.instrs <-
        List.map
          (fun instr ->
            match instr with
            | Cond_br { cond; if_true; if_false } when as_const cond <> None ->
                incr changed;
                let taken, dropped =
                  if Bits.to_bool (Option.get (as_const cond)) then (if_true, if_false)
                  else (if_false, if_true)
                in
                if dropped <> taken then remove_phi_edge f ~target:dropped ~from_label:b.label;
                Br taken
            | Cond_br { cond = _; if_true; if_false } when if_true = if_false ->
                incr changed;
                Br if_true
            | _ -> instr)
          b.instrs)
    f.blocks;
  !changed

let has_side_effects = function
  | Store _ | Call _ | Br _ | Cond_br _ | Ret _ -> true
  | Binop _ | Icmp _ | Fcmp _ | Cast _ | Select _ | Load _ | Gep _ | Phi _ | Alloca _ -> false

(* Remove pure instructions (including loads) whose results are never
   used. *)
let dead_code (f : func) =
  let used = Hashtbl.create 64 in
  iter_instrs f (fun _ instr ->
      List.iter (fun (v : var) -> Hashtbl.replace used v.id ()) (used_vars instr));
  let removed = ref 0 in
  List.iter
    (fun b ->
      b.instrs <-
        List.filter
          (fun instr ->
            match defined_var instr with
            | Some dst when (not (has_side_effects instr)) && not (Hashtbl.mem used dst.id) ->
                incr removed;
                false
            | _ -> true)
          b.instrs)
    f.blocks;
  !removed

(* Structural key for block-local value numbering; only pure,
   memory-independent instructions participate. Registers compare by id
   and constants by type and bits, so 0.0 and -0.0 stay apart. *)
type operand_key = Kvar of int | Kint of Ty.t * int64 | Kfloat of Ty.t * int64 | Knull

type cse_key =
  | Kbinop of binop * Ty.t * operand_key * operand_key
  | Kicmp of icmp * operand_key * operand_key
  | Kfcmp of fcmp * operand_key * operand_key
  | Kcast of cast * Ty.t * operand_key
  | Kselect of operand_key * operand_key * operand_key
  | Kgep of operand_key * (int * operand_key) list

let operand_key = function
  | Var v -> Kvar v.id
  | Const (Cint (ty, i)) -> Kint (ty, i)
  | Const (Cfloat (ty, x)) -> Kfloat (ty, Int64.bits_of_float x)
  | Const Cnull -> Knull

let cse_key instr =
  let k = operand_key in
  match instr with
  | Binop { op; lhs; rhs; dst } -> Some (Kbinop (op, dst.ty, k lhs, k rhs))
  | Icmp { pred; lhs; rhs; _ } -> Some (Kicmp (pred, k lhs, k rhs))
  | Fcmp { pred; lhs; rhs; _ } -> Some (Kfcmp (pred, k lhs, k rhs))
  | Cast { op; src; dst } -> Some (Kcast (op, dst.ty, k src))
  | Select { cond; if_true; if_false; _ } -> Some (Kselect (k cond, k if_true, k if_false))
  | Gep { base; offsets; _ } -> Some (Kgep (k base, List.map (fun (s, v) -> (s, k v)) offsets))
  | Load _ | Store _ | Phi _ | Alloca _ | Call _ | Br _ | Cond_br _ | Ret _ -> None

(* The generic hash stops after ten values, short of a gep's offset
   registers; these limits reach every field of a key. *)
module Key_tbl = Hashtbl.Make (struct
  type t = cse_key

  let equal = ( = )

  let hash = Hashtbl.hash_param 64 256
end)

let common_subexpr (f : func) =
  let removed = ref 0 in
  let subst = Subst.create () in
  List.iter
    (fun b ->
      let seen = Key_tbl.create 16 in
      b.instrs <-
        List.filter_map
          (fun instr ->
            let instr = Subst.rewrite_instr subst instr in
            match cse_key instr with
            | None -> Some instr
            | Some key -> (
                match (Key_tbl.find_opt seen key, defined_var instr) with
                | Some prior, Some dst ->
                    Subst.add subst dst (Var prior);
                    incr removed;
                    None
                | None, Some dst ->
                    Key_tbl.replace seen key dst;
                    Some instr
                | _, None -> Some instr))
          b.instrs)
    f.blocks;
  Subst.apply subst f;
  !removed

(* Remove unreachable blocks and merge blocks with a unique
   unconditional predecessor. *)
let simplify_cfg (f : func) =
  let changed = ref 0 in
  (* 1. drop unreachable blocks and stale phi edges *)
  let cfg = Cfg.build f in
  let keep = List.filter (fun b -> Cfg.reachable cfg (Cfg.index_of_label cfg b.label)) f.blocks in
  if List.length keep <> List.length f.blocks then begin
    changed := !changed + (List.length f.blocks - List.length keep);
    let kept_labels = List.map (fun b -> b.label) keep in
    f.blocks <- keep;
    List.iter
      (fun b ->
        b.instrs <-
          List.map
            (fun instr ->
              match instr with
              | Phi r ->
                  Phi { r with incoming = List.filter (fun (_, l) -> List.mem l kept_labels) r.incoming }
              | _ -> instr)
            b.instrs)
      f.blocks
  end;
  (* 2. eliminate single-incoming phis *)
  let subst = Subst.create () in
  List.iter
    (fun b ->
      b.instrs <-
        List.filter_map
          (fun instr ->
            match instr with
            | Phi { dst; incoming = [ (v, _) ] } ->
                Subst.add subst dst (Subst.resolve subst v);
                incr changed;
                None
            | _ -> Some instr)
          b.instrs)
    f.blocks;
  Subst.apply subst f;
  (* 3. merge straight-line pairs: b ends in br c, c has b as sole pred *)
  let merged = ref true in
  while !merged do
    merged := false;
    let cfg = Cfg.build f in
    let candidate =
      List.find_opt
        (fun b ->
          match List.rev b.instrs with
          | Br target :: _ -> (
              match find_block f target with
              | Some c ->
                  c.label <> (entry_block f).label
                  && Cfg.preds cfg (Cfg.index_of_label cfg c.label) = [ Cfg.index_of_label cfg b.label ]
                  && b.label <> c.label
                  && not (List.exists (function Phi _ -> true | _ -> false) c.instrs)
              | None -> false)
          | _ -> false)
        f.blocks
    in
    match candidate with
    | Some b ->
        let target = match List.rev b.instrs with Br t :: _ -> t | _ -> assert false in
        let c = Option.get (find_block f target) in
        b.instrs <- List.filter (fun i -> not (is_terminator i)) b.instrs @ c.instrs;
        f.blocks <- List.filter (fun blk -> blk.label <> c.label) f.blocks;
        (* phi incoming labels in c's successors must now name b *)
        List.iter
          (fun blk ->
            blk.instrs <-
              List.map
                (fun instr ->
                  match instr with
                  | Phi r ->
                      Phi
                        {
                          r with
                          incoming =
                            List.map (fun (v, l) -> (v, if l = c.label then b.label else l)) r.incoming;
                        }
                  | _ -> instr)
                blk.instrs)
          f.blocks;
        incr changed;
        merged := true
    | None -> ()
  done;
  !changed

let run_all f =
  let rec loop budget =
    if budget > 0 then begin
      let n = constant_fold f + common_subexpr f + dead_code f + simplify_cfg f in
      if n > 0 then loop (budget - 1)
    end
  in
  loop 16
