open Ast

(* The current block's instructions are held newest-first in [pending]
   and written back to the block, in order, when the builder leaves it
   ([add_block], [set_block]) or [finish]es; appending to [b.instrs]
   directly would make emission quadratic in block length. Nothing
   reads a block's [instrs] while it is current. *)
type t = {
  fname : string;
  ret_ty : Ty.t;
  f_params : var list;
  mutable next_id : int;
  mutable blocks : block list; (* reverse order *)
  labels : (string, block) Hashtbl.t;
  mutable current : block option;
  mutable pending : instr list; (* the current block's, newest first *)
}

let create ~name ~ret_ty ~params =
  let next = ref 0 in
  let f_params =
    List.map
      (fun (vname, ty) ->
        let id = !next in
        incr next;
        { id; vname; ty })
      params
  in
  {
    fname = name;
    ret_ty;
    f_params;
    next_id = !next;
    blocks = [];
    labels = Hashtbl.create 16;
    current = None;
    pending = [];
  }

let params t = t.f_params

let fresh t vname ty =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  { id; vname; ty }

let flush t = match t.current with Some b -> b.instrs <- List.rev t.pending | None -> ()

let enter t b =
  flush t;
  t.current <- Some b;
  t.pending <- List.rev b.instrs

let add_block t label =
  if Hashtbl.mem t.labels label then invalid_arg ("Builder.add_block: duplicate label " ^ label);
  let b = { label; instrs = [] } in
  Hashtbl.replace t.labels label b;
  t.blocks <- b :: t.blocks;
  enter t b

let set_block t label =
  match Hashtbl.find_opt t.labels label with
  | Some b -> enter t b
  | None -> invalid_arg ("Builder.set_block: unknown label " ^ label)

let current_label t =
  match t.current with
  | Some b -> b.label
  | None -> invalid_arg "Builder.current_label: no current block"

let emit t instr =
  match t.current with
  | Some _ -> t.pending <- instr :: t.pending
  | None -> invalid_arg "Builder.emit: no current block"

let binop t ?(name = "t") op lhs rhs =
  let dst = fresh t name (binop_ty op lhs) in
  emit t (Binop { dst; op; lhs; rhs });
  Var dst

let icmp t ?(name = "c") pred lhs rhs =
  let dst = fresh t name Ty.I1 in
  emit t (Icmp { dst; pred; lhs; rhs });
  Var dst

let fcmp t ?(name = "c") pred lhs rhs =
  let dst = fresh t name Ty.I1 in
  emit t (Fcmp { dst; pred; lhs; rhs });
  Var dst

let cast t ?(name = "t") op src dst_ty =
  let dst = fresh t name dst_ty in
  emit t (Cast { dst; op; src });
  Var dst

let select t ?(name = "t") cond if_true if_false =
  let dst = fresh t name (value_ty if_true) in
  emit t (Select { dst; cond; if_true; if_false });
  Var dst

let load t ?(name = "v") ty addr =
  let dst = fresh t name ty in
  emit t (Load { dst; addr });
  Var dst

let store t ~src ~addr = emit t (Store { src; addr })

let gep t ?(name = "p") base offsets =
  let dst = fresh t name Ty.Ptr in
  emit t (Gep { dst; base; offsets });
  Var dst

let alloca t ?(name = "buf") elem_ty count =
  let dst = fresh t name Ty.Ptr in
  emit t (Alloca { dst; elem_ty; count });
  Var dst

let phi t ?(name = "phi") ty incoming =
  let dst = fresh t name ty in
  emit t (Phi { dst; incoming });
  Var dst

let call t ?(name = "r") ret_ty callee args =
  if Ty.equal ret_ty Ty.Void then begin
    emit t (Call { dst = None; callee; args });
    None
  end
  else begin
    let dst = fresh t name ret_ty in
    emit t (Call { dst = Some dst; callee; args });
    Some (Var dst)
  end

let br t label = emit t (Br label)

let cond_br t cond if_true if_false = emit t (Cond_br { cond; if_true; if_false })

let ret t v = emit t (Ret v)

let finish t =
  flush t;
  { fname = t.fname; params = t.f_params; ret_ty = t.ret_ty; blocks = List.rev t.blocks }

let ci32 i = Const (Cint (Ty.I32, Int64.of_int i))

let ci64 i = Const (Cint (Ty.I64, Int64.of_int i))

let cf64 f = Const (Cfloat (Ty.F64, f))
