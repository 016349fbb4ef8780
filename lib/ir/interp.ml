open Ast

exception Out_of_fuel

exception Trap of string

type event = {
  ev_instr : instr;
  ev_block : string;
  ev_operands : Bits.t list;
  ev_result : Bits.t option;
}

type intrinsics = (string * (Bits.t list -> Bits.t)) list

let unary name f = function
  | [ v ] -> Bits.Float (f (Bits.to_float v))
  | _ -> raise (Trap (name ^ ": expected one argument"))

let binary name f = function
  | [ a; b ] -> Bits.Float (f (Bits.to_float a) (Bits.to_float b))
  | _ -> raise (Trap (name ^ ": expected two arguments"))

let default_intrinsics =
  [
    ("sqrt", unary "sqrt" sqrt);
    ("fabs", unary "fabs" Float.abs);
    ("exp", unary "exp" exp);
    ("log", unary "log" log);
    ("sin", unary "sin" sin);
    ("cos", unary "cos" cos);
    ("floor", unary "floor" Float.floor);
    ("fmin", binary "fmin" Float.min);
    ("fmax", binary "fmax" Float.max);
  ]

(* count of the most recently finished run, for reporting only. Each run
   accumulates into its own local counter and publishes once on exit, so
   concurrent runs in other domains never interleave increments. *)
let last_count = ref 0

let instructions_executed () = !last_count

(* Registers are numbered densely per function (the builder and mem2reg
   count them), so a frame is an array indexed by register id. *)
type frame = { env : Bits.t option array }

let frame_size (f : func) =
  let m = ref 0 in
  let see (v : var) = if v.id >= !m then m := v.id + 1 in
  List.iter see f.params;
  iter_instrs f (fun _ i ->
      (match defined_var i with Some v -> see v | None -> ());
      List.iter see (used_vars i));
  !m

let run ?(fuel = 100_000_000) ?(intrinsics = default_intrinsics) ?on_exec mem (m : modul)
    ~entry ~args =
  let fuel_left = ref fuel in
  let count = ref 0 in
  let globals = Hashtbl.create 8 in
  (* Materialise globals once, at deterministic addresses. *)
  List.iter
    (fun (g : global) ->
      let bytes = g.elements * Ty.size_bytes g.gty in
      let addr = Memory.alloc mem ~bytes ~align:8 in
      (match g.init with
      | None -> ()
      | Some init ->
          Array.iteri
            (fun i c ->
              let v =
                match c with
                | Cint (_, x) -> Bits.Int x
                | Cfloat (_, f) -> Bits.Float f
                | Cnull -> Bits.Int 0L
              in
              Memory.store mem g.gty
                (Int64.add addr (Int64.of_int (i * Ty.size_bytes g.gty)))
                v)
            init);
      Hashtbl.replace globals g.gname addr)
    m.globals;
  let sizes = ref [] in
  let size_of f =
    match List.assq_opt f !sizes with
    | Some n -> n
    | None ->
        let n = frame_size f in
        sizes := (f, n) :: !sizes;
        n
  in
  let rec exec_function depth (f : func) (actuals : Bits.t list) =
    if depth > 256 then raise (Trap "call stack overflow");
    let frame = { env = Array.make (size_of f) None } in
    (try
       List.iter2 (fun p v -> frame.env.(p.id) <- Some (Bits.truncate p.ty v)) f.params
         actuals
     with Invalid_argument _ ->
       raise (Trap (Printf.sprintf "%s: arity mismatch" f.fname)));
    let eval = function
      | Var v -> (
          match frame.env.(v.id) with
          | Some x -> x
          | None -> raise (Trap (Printf.sprintf "%s: read of unset register %s.%d" f.fname v.vname v.id)))
      | Const (Cint (ty, i)) -> Bits.truncate ty (Bits.Int i)
      | Const (Cfloat (ty, x)) -> Bits.truncate ty (Bits.Float x)
      | Const Cnull -> Bits.Int 0L
    in
    let assign (v : var) x = frame.env.(v.id) <- Some (Bits.truncate v.ty x) in
    let notify ?operands block instr result =
      match on_exec with
      | None -> ()
      | Some f ->
          let ev_operands =
            match operands with
            | Some ops -> ops
            | None -> List.map eval (used_values instr)
          in
          f { ev_instr = instr; ev_block = block; ev_operands; ev_result = result }
    in
    let rec run_block (prev : string option) (b : block) : Bits.t option =
      (* Phis read their inputs atomically with respect to the edge. *)
      let phis, rest =
        let is_phi = function Phi _ -> true | _ -> false in
        List.partition is_phi b.instrs
      in
      let phi_values =
        List.map
          (fun instr ->
            match instr with
            | Phi { dst; incoming } -> (
                match prev with
                | None -> raise (Trap "phi in entry block")
                | Some prev_label -> (
                    match List.assoc_opt prev_label (List.map (fun (v, l) -> (l, v)) incoming) with
                    | Some v -> (instr, dst, eval v)
                    | None ->
                        raise
                          (Trap
                             (Printf.sprintf "phi in %s has no incoming for predecessor %s"
                                b.label prev_label))))
            | _ -> assert false)
          phis
      in
      List.iter
        (fun (instr, dst, v) ->
          assign dst v;
          if !fuel_left <= 0 then raise Out_of_fuel;
          decr fuel_left;
          incr count;
          (* only the selected incoming operand is observable: values
             from untaken edges may not exist yet *)
          notify ~operands:[ v ] b.label instr (Some v))
        phi_values;
      step rest b
    and step instrs (b : block) : Bits.t option =
      match instrs with
      | [] -> raise (Trap (Printf.sprintf "block %s fell through without terminator" b.label))
      | instr :: rest -> begin
          if !fuel_left <= 0 then raise Out_of_fuel;
          decr fuel_left;
          incr count;
          match instr with
          | Binop { dst; op; lhs; rhs } ->
              let r =
                try Bits.eval_binop op dst.ty (eval lhs) (eval rhs)
                with Division_by_zero ->
                  raise
                    (Trap
                       (Printf.sprintf "division by zero in @%s, block %%%s, at: %s"
                          f.fname b.label
                          (Format.asprintf "%a" Pp.instr instr)))
              in
              assign dst r;
              notify b.label instr (Some r);
              step rest b
          | Icmp { dst; pred; lhs; rhs } ->
              let r = Bits.eval_icmp pred (value_ty lhs) (eval lhs) (eval rhs) in
              assign dst r;
              notify b.label instr (Some r);
              step rest b
          | Fcmp { dst; pred; lhs; rhs } ->
              let r = Bits.eval_fcmp pred (eval lhs) (eval rhs) in
              assign dst r;
              notify b.label instr (Some r);
              step rest b
          | Cast { dst; op; src } ->
              let r = Bits.eval_cast op ~src_ty:(value_ty src) ~dst_ty:dst.ty (eval src) in
              assign dst r;
              notify b.label instr (Some r);
              step rest b
          | Select { dst; cond; if_true; if_false } ->
              let r = if Bits.to_bool (eval cond) then eval if_true else eval if_false in
              assign dst r;
              notify b.label instr (Some r);
              step rest b
          | Load { dst; addr } ->
              let a = Bits.to_int64 (eval addr) in
              if Int64.equal a 0L then raise (Trap "null pointer load");
              let r = Memory.load mem dst.ty a in
              assign dst r;
              notify b.label instr (Some r);
              step rest b
          | Store { src; addr } ->
              let a = Bits.to_int64 (eval addr) in
              if Int64.equal a 0L then raise (Trap "null pointer store");
              Memory.store mem (value_ty src) a (eval src);
              notify b.label instr None;
              step rest b
          | Gep { dst; base; offsets } ->
              let acc =
                List.fold_left
                  (fun acc (scale, idx) ->
                    let i = Bits.signed (value_ty idx) (Bits.to_int64 (eval idx)) in
                    Int64.add acc (Int64.mul (Int64.of_int scale) i))
                  (Bits.to_int64 (eval base))
                  offsets
              in
              assign dst (Bits.Int acc);
              notify b.label instr (Some (Bits.Int acc));
              step rest b
          | Phi _ -> raise (Trap "phi after non-phi instruction")
          | Alloca { dst; elem_ty; count } ->
              let addr = Memory.alloc mem ~bytes:(count * Ty.size_bytes elem_ty) ~align:8 in
              assign dst (Bits.Int addr);
              notify b.label instr (Some (Bits.Int addr));
              step rest b
          | Call { dst; callee; args = actual_args } -> begin
              let arg_values = List.map eval actual_args in
              match find_func m callee with
              | Some g ->
                  let r = exec_function (depth + 1) g arg_values in
                  (match (dst, r) with
                  | Some d, Some v -> assign d v
                  | None, _ -> ()
                  | Some d, None ->
                      raise (Trap (Printf.sprintf "call to void %s assigns %s" callee d.vname)));
                  notify b.label instr r;
                  step rest b
              | None -> (
                  match List.assoc_opt callee intrinsics with
                  | Some impl ->
                      let r = impl arg_values in
                      (match dst with Some d -> assign d r | None -> ());
                      notify b.label instr (Some r);
                      step rest b
                  | None -> raise (Trap ("unknown callee @" ^ callee)))
            end
          | Br label -> begin
              notify b.label instr None;
              match find_block f label with
              | Some next -> run_block (Some b.label) next
              | None -> raise (Trap ("branch to unknown label " ^ label))
            end
          | Cond_br { cond; if_true; if_false } -> begin
              notify b.label instr None;
              let target = if Bits.to_bool (eval cond) then if_true else if_false in
              match find_block f target with
              | Some next -> run_block (Some b.label) next
              | None -> raise (Trap ("branch to unknown label " ^ target))
            end
          | Ret v ->
              let r = Option.map eval v in
              notify b.label instr r;
              r
        end
    in
    run_block None (entry_block f)
  in
  match find_func m entry with
  | Some f ->
      let r = exec_function 0 f args in
      last_count := !count;
      r
  | None -> raise (Trap ("no such function @" ^ entry))
