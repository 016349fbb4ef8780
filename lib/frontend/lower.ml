open Salam_ir
module L = Lang

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type binding =
  | Slot of Ast.value * Ty.t  (** pointer to an alloca slot holding a scalar *)
  | Arr of Ast.value * Ty.t * int list  (** base pointer, element type, dims *)

type env = { builder : Builder.t; mutable vars : (string * binding) list; mutable labels : int }

let fresh_label env prefix =
  env.labels <- env.labels + 1;
  Printf.sprintf "%s%d" prefix env.labels

let find env name =
  match List.assoc_opt name env.vars with
  | Some b -> b
  | None -> err "unknown variable %s" name

(* Static type of an expression, used to resolve polymorphic literals and
   pick integer vs float opcodes. *)
type ety = Known of Ty.t | Any_int | Any_float

let rec infer env (e : L.expr) : ety =
  match e with
  | L.Int_lit _ -> Any_int
  | L.Float_lit _ -> Any_float
  | L.Var name -> (
      match find env name with
      | Slot (_, ty) -> Known ty
      | Arr _ -> Known Ty.Ptr)
  | L.Index (name, _) -> (
      match find env name with
      | Arr (_, elem, _) -> Known elem
      | Slot _ -> err "indexing scalar %s" name)
  | L.Addr_of _ -> Known Ty.Ptr
  | L.Binop (_, a, b) -> join env a b
  | L.Neg a -> infer env a
  | L.Cmp _ | L.Not _ | L.And _ | L.Or _ -> Known Ty.I1
  | L.Cond (_, a, b) -> join env a b
  | L.Call (name, args) -> (
      match (name, args) with
      | _, (a :: _) -> (
          match infer env a with Known Ty.F32 -> Known Ty.F32 | _ -> Known Ty.F64)
      | _, [] -> Known Ty.F64)
  | L.Cast (ty, _) -> Known ty

and join env a b =
  match (infer env a, infer env b) with
  | Known t, _ -> Known t
  | _, Known t -> Known t
  | Any_float, _ | _, Any_float -> Any_float
  | Any_int, Any_int -> Any_int

let resolve = function Known t -> t | Any_int -> Ty.I32 | Any_float -> Ty.F64

(* Insert a cast so that [value] has type [want]. *)
let coerce env want value =
  let b = env.builder in
  let have = Ast.value_ty value in
  if Ty.equal have want then value
  else
    match (Ty.is_integer have, Ty.is_integer want, Ty.is_float have, Ty.is_float want) with
    | true, true, _, _ ->
        if Ty.bits want > Ty.bits have then Builder.cast b Ast.Sext value want
        else Builder.cast b Ast.Trunc value want
    | true, _, _, true -> Builder.cast b Ast.Sitofp value want
    | _, true, true, _ -> Builder.cast b Ast.Fptosi value want
    | _, _, true, true ->
        if Ty.equal want Ty.F64 then Builder.cast b Ast.Fpext value want
        else Builder.cast b Ast.Fptrunc value want
    | _ -> err "cannot coerce %s to %s" (Ty.to_string have) (Ty.to_string want)

let const_of_ty ty (i : int64) (x : float) =
  if Ty.is_float ty then Ast.Const (Ast.Cfloat (ty, x)) else Ast.Const (Ast.Cint (ty, i))

let arith_op ty (op : L.arith) : Ast.binop =
  if Ty.is_float ty then
    match op with
    | L.Add -> Ast.Fadd
    | L.Sub -> Ast.Fsub
    | L.Mul -> Ast.Fmul
    | L.Div -> Ast.Fdiv
    | L.Rem -> Ast.Frem
    | L.Shl | L.Shr | L.Band | L.Bor | L.Bxor -> err "bitwise operator on float"
  else
    match op with
    | L.Add -> Ast.Add
    | L.Sub -> Ast.Sub
    | L.Mul -> Ast.Mul
    | L.Div -> Ast.Sdiv
    | L.Rem -> Ast.Srem
    | L.Shl -> Ast.Shl
    | L.Shr -> Ast.Ashr
    | L.Band -> Ast.And
    | L.Bor -> Ast.Or
    | L.Bxor -> Ast.Xor

let cmp_pred_int : L.cmp -> Ast.icmp = function
  | L.Lt -> Ast.Islt
  | L.Le -> Ast.Isle
  | L.Gt -> Ast.Isgt
  | L.Ge -> Ast.Isge
  | L.Eq -> Ast.Ieq
  | L.Ne -> Ast.Ine

let cmp_pred_float : L.cmp -> Ast.fcmp = function
  | L.Lt -> Ast.Folt
  | L.Le -> Ast.Fole
  | L.Gt -> Ast.Fogt
  | L.Ge -> Ast.Foge
  | L.Eq -> Ast.Foeq
  | L.Ne -> Ast.Fone

(* Row-major address of a[i0]...[ik]: gep base with one (scale, index)
   term per dimension. *)
let rec element_address env name indices =
  let b = env.builder in
  match find env name with
  | Slot _ -> err "indexing scalar %s" name
  | Arr (base, elem, dims) ->
      if List.length indices > List.length dims && dims <> [] then
        err "too many indices for array %s" name;
      let elem_size = Ty.size_bytes elem in
      (* scale of index k is elem_size * product of dims after position k *)
      let n = List.length indices in
      let dims = if dims = [] then List.init n (fun _ -> 1) else dims in
      let scales =
        List.mapi
          (fun k _ ->
            let rest = List.filteri (fun j _ -> j > k) dims in
            elem_size * List.fold_left ( * ) 1 rest)
          (List.filteri (fun j _ -> j < n) dims)
      in
      let offsets =
        List.map2
          (fun scale idx_expr ->
            let idx = lower_expr env ~expect:(Some Ty.I32) idx_expr in
            (scale, idx))
          scales indices
      in
      (Builder.gep b ~name:(name ^ "_addr") base offsets, elem)

and lower_expr env ~expect (e : L.expr) : Ast.value =
  let b = env.builder in
  let want = match expect with Some t -> t | None -> resolve (infer env e) in
  match e with
  | L.Int_lit i ->
      if Ty.is_float want then Ast.Const (Ast.Cfloat (want, Int64.to_float i))
      else const_of_ty want i 0.0
  | L.Float_lit x ->
      if Ty.is_float want then Ast.Const (Ast.Cfloat (want, x))
      else err "float literal in integer context"
  | L.Var name -> (
      match find env name with
      | Slot (ptr, ty) -> coerce env want (Builder.load b ~name ty ptr)
      | Arr (base, _, _) -> base)
  | L.Index (name, indices) ->
      let addr, elem = element_address env name indices in
      coerce env want (Builder.load b ~name elem addr)
  | L.Addr_of (name, indices) ->
      let addr, _ = element_address env name indices in
      addr
  | L.Binop (op, lhs, rhs) ->
      let ty = resolve (join env lhs rhs) in
      let l = lower_expr env ~expect:(Some ty) lhs in
      let r = lower_expr env ~expect:(Some ty) rhs in
      coerce env want (Builder.binop b (arith_op ty op) l r)
  | L.Neg a ->
      let ty = resolve (infer env a) in
      let zero = const_of_ty ty 0L 0.0 in
      let av = lower_expr env ~expect:(Some ty) a in
      let op = if Ty.is_float ty then Ast.Fsub else Ast.Sub in
      coerce env want (Builder.binop b op zero av)
  | L.Cmp (pred, lhs, rhs) ->
      let ty = resolve (join env lhs rhs) in
      let l = lower_expr env ~expect:(Some ty) lhs in
      let r = lower_expr env ~expect:(Some ty) rhs in
      if Ty.is_float ty then Builder.fcmp b (cmp_pred_float pred) l r
      else Builder.icmp b (cmp_pred_int pred) l r
  | L.Not a ->
      let av = lower_expr env ~expect:(Some Ty.I1) a in
      Builder.binop b Ast.Xor av (Ast.Const (Ast.Cint (Ty.I1, 1L)))
  | L.And (x, y) ->
      let xv = lower_expr env ~expect:(Some Ty.I1) x in
      let yv = lower_expr env ~expect:(Some Ty.I1) y in
      Builder.binop b Ast.And xv yv
  | L.Or (x, y) ->
      let xv = lower_expr env ~expect:(Some Ty.I1) x in
      let yv = lower_expr env ~expect:(Some Ty.I1) y in
      Builder.binop b Ast.Or xv yv
  | L.Cond (c, t, f) ->
      let ty = resolve (join env t f) in
      let cv = lower_expr env ~expect:(Some Ty.I1) c in
      let tv = lower_expr env ~expect:(Some ty) t in
      let fv = lower_expr env ~expect:(Some ty) f in
      coerce env want (Builder.select b cv tv fv)
  | L.Call (name, args) ->
      let arg_ty =
        match args with
        | a :: _ -> ( match infer env a with Known Ty.F32 -> Ty.F32 | _ -> Ty.F64)
        | [] -> Ty.F64
      in
      let values = List.map (lower_expr env ~expect:(Some arg_ty)) args in
      (match Builder.call b ~name arg_ty name values with
      | Some r -> coerce env want r
      | None -> err "void call %s used as a value" name)
  | L.Cast (ty, a) ->
      let av = lower_expr env ~expect:None a in
      coerce env want (coerce env ty av)

(* Substitute [replacement] for [Var name] in an expression; used by the
   unroller to offset loop indices per copy. *)
let rec subst_expr name replacement (e : L.expr) : L.expr =
  let s = subst_expr name replacement in
  match e with
  | L.Int_lit _ | L.Float_lit _ -> e
  | L.Var n -> if n = name then replacement else e
  | L.Index (n, idxs) -> L.Index (n, List.map s idxs)
  | L.Addr_of (n, idxs) -> L.Addr_of (n, List.map s idxs)
  | L.Binop (op, a, b) -> L.Binop (op, s a, s b)
  | L.Neg a -> L.Neg (s a)
  | L.Cmp (p, a, b) -> L.Cmp (p, s a, s b)
  | L.Not a -> L.Not (s a)
  | L.And (a, b) -> L.And (s a, s b)
  | L.Or (a, b) -> L.Or (s a, s b)
  | L.Cond (c, a, b) -> L.Cond (s c, s a, s b)
  | L.Call (n, args) -> L.Call (n, List.map s args)
  | L.Cast (t, a) -> L.Cast (t, s a)

let rec subst_stmt name replacement (st : L.stmt) : L.stmt =
  let se = subst_expr name replacement in
  let ss stmts = List.map (subst_stmt name replacement) stmts in
  match st with
  | L.Decl (ty, n, init) ->
      (* A redeclaration shadows; inits are evaluated in the outer scope. *)
      L.Decl (ty, n, Option.map se init)
  | L.Assign (n, e) -> if n = name then st else L.Assign (n, se e)
  | L.Store (n, idxs, e) -> L.Store (n, List.map se idxs, se e)
  | L.Store_ptr (p, ty, e) -> L.Store_ptr (se p, ty, se e)
  | L.If (c, t, f) -> L.If (se c, ss t, ss f)
  | L.For fl ->
      if fl.index = name then
        L.For { fl with from_ = se fl.from_; to_ = se fl.to_ }
      else L.For { fl with from_ = se fl.from_; to_ = se fl.to_; body = ss fl.body }
  | L.While (c, body) -> L.While (se c, ss body)
  | L.Expr_stmt e -> L.Expr_stmt (se e)
  | L.Return e -> L.Return (Option.map se e)

(* [true] when every control path through [stmts] ends in a return. *)
let rec always_returns stmts =
  List.exists
    (function
      | L.Return _ -> true
      | L.If (_, t, f) -> always_returns t && always_returns f
      | L.Decl _ | L.Assign _ | L.Store _ | L.Store_ptr _ | L.For _ | L.While _
      | L.Expr_stmt _ ->
          false)
    stmts

let rec lower_stmt env ret_ty (st : L.stmt) : unit =
  let b = env.builder in
  match st with
  | L.Decl (ty, name, init) ->
      let slot = Builder.alloca b ~name:(name ^ "_slot") ty 1 in
      env.vars <- (name, Slot (slot, ty)) :: env.vars;
      (match init with
      | Some e ->
          let v = lower_expr env ~expect:(Some ty) e in
          Builder.store b ~src:v ~addr:slot
      | None -> ())
  | L.Assign (name, e) -> (
      match find env name with
      | Slot (slot, ty) ->
          let v = lower_expr env ~expect:(Some ty) e in
          Builder.store b ~src:v ~addr:slot
      | Arr _ -> err "cannot assign to array %s" name)
  | L.Store (name, indices, e) ->
      let addr, elem = element_address env name indices in
      let v = lower_expr env ~expect:(Some elem) e in
      Builder.store b ~src:v ~addr
  | L.Store_ptr (p, ty, e) ->
      let addr = lower_expr env ~expect:(Some Ty.Ptr) p in
      let v = lower_expr env ~expect:(Some ty) e in
      Builder.store b ~src:v ~addr
  | L.If (cond, then_, else_) ->
      let cv = lower_expr env ~expect:(Some Ty.I1) cond in
      let then_label = fresh_label env "if.then" in
      let else_label = fresh_label env "if.else" in
      let merge_label = fresh_label env "if.end" in
      let need_else = else_ <> [] in
      let merge_reachable =
        (not (always_returns then_)) || (not need_else) || not (always_returns else_)
      in
      Builder.cond_br b cv then_label (if need_else then else_label else merge_label);
      Builder.add_block b then_label;
      let saved = env.vars in
      lower_stmts env ret_ty then_;
      if not (always_returns then_) then Builder.br b merge_label;
      env.vars <- saved;
      if need_else then begin
        Builder.add_block b else_label;
        lower_stmts env ret_ty else_;
        if not (always_returns else_) then Builder.br b merge_label;
        env.vars <- saved
      end;
      if merge_reachable then Builder.add_block b merge_label
  | L.For { index; from_; to_; unroll; body }
    when (match (from_, to_) with
         | L.Int_lit lo, L.Int_lit hi ->
             let trips = Int64.to_int hi - Int64.to_int lo in
             trips >= 0 && trips <= max 1 unroll && trips <= 64
         | _ -> false) ->
      (* static trip count within the unroll factor: eliminate the loop
         entirely, as clang's full unrolling does *)
      let lo = match from_ with L.Int_lit l -> Int64.to_int l | _ -> assert false in
      let hi = match to_ with L.Int_lit h -> Int64.to_int h | _ -> assert false in
      for iter = lo to hi - 1 do
        let body_c = List.map (subst_stmt index (L.Int_lit (Int64.of_int iter))) body in
        let inner = env.vars in
        lower_stmts env ret_ty body_c;
        env.vars <- inner
      done
  | L.For { index; from_; to_; unroll; body } ->
      let unroll = max 1 unroll in
      let slot = Builder.alloca b ~name:(index ^ "_slot") Ty.I32 1 in
      let saved = env.vars in
      env.vars <- (index, Slot (slot, Ty.I32)) :: env.vars;
      let from_v = lower_expr env ~expect:(Some Ty.I32) from_ in
      Builder.store b ~src:from_v ~addr:slot;
      let bound_v = lower_expr env ~expect:(Some Ty.I32) to_ in
      let header = fresh_label env "for.cond" in
      let body_label = fresh_label env "for.body" in
      let exit_label = fresh_label env "for.end" in
      Builder.br b header;
      Builder.add_block b header;
      let iv = Builder.load b ~name:index Ty.I32 slot in
      (* with unrolling, the guard checks that a full group of [unroll]
         iterations fits; the kernel author guarantees divisibility, as
         with HLS unroll pragmas *)
      let cond = Builder.icmp b Ast.Islt iv bound_v in
      Builder.cond_br b cond body_label exit_label;
      Builder.add_block b body_label;
      for copy = 0 to unroll - 1 do
        let body_c =
          if copy = 0 then body
          else
            let offset = L.Binop (L.Add, L.Var index, L.Int_lit (Int64.of_int copy)) in
            List.map (subst_stmt index offset) body
        in
        let inner = env.vars in
        lower_stmts env ret_ty body_c;
        env.vars <- inner
      done;
      let iv2 = Builder.load b ~name:index Ty.I32 slot in
      let inc = Builder.binop b Ast.Add iv2 (Ast.Const (Ast.Cint (Ty.I32, Int64.of_int unroll))) in
      Builder.store b ~src:inc ~addr:slot;
      Builder.br b header;
      Builder.add_block b exit_label;
      env.vars <- saved
  | L.While (cond, body) ->
      let header = fresh_label env "while.cond" in
      let body_label = fresh_label env "while.body" in
      let exit_label = fresh_label env "while.end" in
      Builder.br b header;
      Builder.add_block b header;
      let cv = lower_expr env ~expect:(Some Ty.I1) cond in
      Builder.cond_br b cv body_label exit_label;
      Builder.add_block b body_label;
      let saved = env.vars in
      lower_stmts env ret_ty body;
      env.vars <- saved;
      Builder.br b header;
      Builder.add_block b exit_label
  | L.Expr_stmt e -> ignore (lower_expr env ~expect:None e)
  | L.Return None -> Builder.ret b None
  | L.Return (Some e) ->
      let v = lower_expr env ~expect:(Some ret_ty) e in
      Builder.ret b (Some v)

and lower_stmts env ret_ty stmts =
  let rec go = function
    | [] -> ()
    | st :: rest ->
        lower_stmt env ret_ty st;
        (* statements after a guaranteed return are dead *)
        if always_returns [ st ] then () else go rest
  in
  go stmts

let kernel (k : L.kernel) : Ast.func =
  let params = List.map (fun (p : L.param) -> (p.pname, if p.dims = [] then p.elem else Ty.Ptr)) k.params in
  let b = Builder.create ~name:k.kname ~ret_ty:k.ret ~params in
  let env = { builder = b; vars = []; labels = 0 } in
  Builder.add_block b "entry";
  (* Bind parameters: arrays directly, scalars through slots (clang -O0
     style; mem2reg turns the slots back into registers). *)
  List.iter2
    (fun (p : L.param) (var : Ast.var) ->
      if p.dims = [] then begin
        let slot = Builder.alloca b ~name:(p.pname ^ "_slot") p.elem 1 in
        Builder.store b ~src:(Ast.Var var) ~addr:slot;
        env.vars <- (p.pname, Slot (slot, p.elem)) :: env.vars
      end
      else env.vars <- (p.pname, Arr (Ast.Var var, p.elem, p.dims)) :: env.vars)
    k.params (Builder.params b);
  lower_stmts env k.ret k.body;
  if not (always_returns k.body) then
    if Ty.equal k.ret Ty.Void then Builder.ret b None
    else err "kernel %s: missing return" k.kname;
  Builder.finish b
