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

let intrinsics =
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

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* --- pre-resolution ------------------------------------------------------

   A run resolves each function it enters once, into blocks of
   slot-addressed operations over raw payloads (see {!Bits.Payload}). A
   frame is one [Bytes] of 8-byte slots: the registers by id, then the
   function's constants, truncated once, then scratch slots for the phi
   moves of one edge. Labels become block indices, and every edge
   carries the moves of its target's phis. Each block keeps the
   instructions its operations came from, for events and trap
   messages. *)

type callee = Defined of func | Intrinsic of (Bits.t list -> Bits.t) | Unknown

type edge = {
  target : int;  (** block index; [-1] for a label the function lacks *)
  target_label : string;
  srcs : int array;
      (** one slot per phi of the target, in order, up to the first phi
          with no incoming value for this edge *)
  src_tys : Ty.t array;
  missing : string option;  (** that phi's trap message *)
}

type op =
  | Arith of { dst : int; ty : Ty.t; op : binop; a : int; b : int }
  | Int_cmp of { dst : int; ty : Ty.t; pred : icmp; a : int; b : int }
  | Float_cmp of { dst : int; pred : fcmp; a : int; b : int }
  | Convert of { dst : int; op : cast; src_ty : Ty.t; dst_ty : Ty.t; a : int }
  | Choose of { dst : int; ty : Ty.t; cond_ty : Ty.t; c : int; t : int; f : int }
  | Read of { dst : int; ty : Ty.t; addr : int }
  | Write of { ty : Ty.t; src : int; addr : int }
  | Address of {
      dst : int;
      base : int;
      scales : int array;
      idxs : int array;
      idx_tys : Ty.t array;
    }
  | Stack of { dst : int; bytes : int }
  | Invoke of { dst : var option; callee : callee; name : string; args : (int * Ty.t) list }
  | Jump of edge
  | Branch of { c : int; cond_ty : Ty.t; if_true : edge; if_false : edge }
  | Return of (int * Ty.t) option
  | Fall_through

type rblock = {
  label : string;
  phis : instr array;  (** hoisted to the block's start, as they execute *)
  phi_dsts : var array;
  ops : op array;
  instrs : instr array;  (** the instruction behind each op but [Fall_through] *)
}

type rfunc = {
  fn : func;
  slots : Bytes.t;  (** a fresh frame's slots: constants in place *)
  set : Bytes.t;  (** per slot, ['\001'] once it holds a value *)
  scratch : int;  (** first phi scratch slot *)
  blocks : rblock array;
}

let const_value = function
  | Cint (ty, i) -> Bits.truncate ty (Bits.Int i)
  | Cfloat (ty, x) -> Bits.truncate ty (Bits.Float x)
  | Cnull -> Bits.Int 0L

(* the payload a register of type [ty] holds for a boxed value *)
let to_register ty v = Bits.Payload.truncate ty (Bits.payload_as ty v)

let iter_vars (f : func) g =
  List.iter g f.params;
  iter_instrs f (fun _ i ->
      Option.iter g (defined_var i);
      List.iter g (used_vars i))

let resolve (m : modul) (f : func) =
  let nregs = ref 0 in
  iter_vars f (fun v -> if v.id >= !nregs then nregs := v.id + 1);
  (* a slot per constant operand: cheaper to copy than to share *)
  let consts = ref [] and next = ref !nregs in
  let slot = function
    | Var v -> v.id
    | Const c as v ->
        let s = !next in
        incr next;
        consts := (s, to_register (value_ty v) (const_value c)) :: !consts;
        s
  in
  let typed v = (slot v, value_ty v) in
  let blocks = Array.of_list f.blocks in
  let index = Hashtbl.create (Array.length blocks) in
  (* a label names its first block, as [find_block] finds it *)
  Array.iteri
    (fun i (b : block) -> if not (Hashtbl.mem index b.label) then Hashtbl.add index b.label i)
    blocks;
  let is_phi = function Phi _ -> true | _ -> false in
  let phis = Array.map (fun (b : block) -> List.filter is_phi b.instrs) blocks in
  let edge from target_label =
    match Hashtbl.find_opt index target_label with
    | None -> { target = -1; target_label; srcs = [||]; src_tys = [||]; missing = None }
    | Some target ->
        let rec moves acc = function
          | Phi { incoming; _ } :: rest -> (
              match List.find_opt (fun (_, l) -> l = from) incoming with
              | Some (v, _) -> moves (typed v :: acc) rest
              | None ->
                  ( acc,
                    Some
                      (Printf.sprintf "phi in %s has no incoming for predecessor %s" target_label
                         from) ))
          | _ -> (acc, None)
        in
        let acc, missing = moves [] phis.(target) in
        let acc = Array.of_list (List.rev acc) in
        { target; target_label; srcs = Array.map fst acc; src_tys = Array.map snd acc; missing }
  in
  let callee name =
    match find_func m name with
    | Some g -> Defined g
    | None -> (
        match List.assoc_opt name intrinsics with Some impl -> Intrinsic impl | None -> Unknown)
  in
  let op label = function
    | Binop { dst; op; lhs; rhs } ->
        Arith { dst = dst.id; ty = dst.ty; op; a = slot lhs; b = slot rhs }
    | Icmp { dst; pred; lhs; rhs } ->
        Int_cmp { dst = dst.id; ty = value_ty lhs; pred; a = slot lhs; b = slot rhs }
    | Fcmp { dst; pred; lhs; rhs } -> Float_cmp { dst = dst.id; pred; a = slot lhs; b = slot rhs }
    | Cast { dst; op; src } ->
        Convert { dst = dst.id; op; src_ty = value_ty src; dst_ty = dst.ty; a = slot src }
    | Select { dst; cond; if_true; if_false } ->
        Choose
          {
            dst = dst.id;
            ty = dst.ty;
            cond_ty = value_ty cond;
            c = slot cond;
            t = slot if_true;
            f = slot if_false;
          }
    | Load { dst; addr } -> Read { dst = dst.id; ty = dst.ty; addr = slot addr }
    | Store { src; addr } -> Write { ty = value_ty src; src = slot src; addr = slot addr }
    | Gep { dst; base; offsets } ->
        let offsets = Array.of_list offsets in
        Address
          {
            dst = dst.id;
            base = slot base;
            scales = Array.map fst offsets;
            idxs = Array.map (fun (_, v) -> slot v) offsets;
            idx_tys = Array.map (fun (_, v) -> value_ty v) offsets;
          }
    | Alloca { dst; elem_ty; count } ->
        Stack { dst = dst.id; bytes = count * Ty.size_bytes elem_ty }
    | Call { dst; callee = name; args } ->
        Invoke { dst; callee = callee name; name; args = List.map typed args }
    | Br target -> Jump (edge label target)
    | Cond_br { cond; if_true; if_false } ->
        Branch
          {
            c = slot cond;
            cond_ty = value_ty cond;
            if_true = edge label if_true;
            if_false = edge label if_false;
          }
    | Ret v -> Return (Option.map typed v)
    | Phi _ -> assert false
  in
  let blocks =
    Array.mapi
      (fun i (b : block) ->
        (* a block runs up to its first terminator; one without any
           traps once its last instruction has run *)
        let rec body acc = function
          | [] -> (List.rev acc, false)
          | instr :: rest ->
              if is_terminator instr then (List.rev (instr :: acc), true)
              else body (if is_phi instr then acc else instr :: acc) rest
        in
        let instrs, terminated = body [] b.instrs in
        let ops = List.map (op b.label) instrs in
        {
          label = b.label;
          phis = Array.of_list phis.(i);
          phi_dsts =
            Array.of_list
              (List.map (function Phi { dst; _ } -> dst | _ -> assert false) phis.(i));
          ops = Array.of_list (if terminated then ops else ops @ [ Fall_through ]);
          instrs = Array.of_list instrs;
        })
      blocks
  in
  let scratch = !next in
  let width = Array.fold_left (fun w b -> max w (Array.length b.phis)) 0 blocks in
  let slots = Bytes.make (8 * (scratch + width)) '\000' in
  let set = Bytes.make scratch '\000' in
  List.iter
    (fun (s, p) ->
      set64 slots (8 * s) p;
      Bytes.set set s '\001')
    !consts;
  { fn = f; slots; set; scratch; blocks }

(* --- execution ------------------------------------------------------------ *)

type frame = { rf : rfunc; regs : Bytes.t; defined : Bytes.t }

let unset fr s =
  let f = fr.rf.fn in
  let name = ref "" in
  iter_vars f (fun v -> if v.id = s then name := v.vname);
  raise (Trap (Printf.sprintf "%s: read of unset register %s.%d" f.fname !name s))

(* Register slots are bounded by construction: [resolve] numbers every
   slot below [scratch] and sizes [regs] and [defined] to match, so the
   accesses skip the bounds check. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] read fr s =
  if Bytes.unsafe_get fr.defined s = '\000' then unset fr s;
  get64u fr.regs (8 * s)

let[@inline] write fr s p =
  set64u fr.regs (8 * s) p;
  Bytes.unsafe_set fr.defined s '\001'

let box fr = function
  | Var v -> Bits.of_payload v.ty (read fr v.id)
  | Const c -> const_value c

(* [resolved] holds the functions of [m] resolved so far, shared by the
   runs of one [run_each] *)
let run_resolved resolved ~fuel ?on_exec mem (m : modul) ~entry ~args =
  let fuel_left = ref fuel in
  let[@inline] spend () =
    if !fuel_left <= 0 then raise Out_of_fuel;
    decr fuel_left
  in
  (* Materialise globals once, at deterministic addresses. *)
  List.iter
    (fun (g : global) ->
      let bytes = g.elements * Ty.size_bytes g.gty in
      let addr = Memory.alloc mem ~bytes ~align:8 in
      match g.init with
      | None -> ()
      | Some init ->
          Array.iteri
            (fun i c ->
              Memory.store mem g.gty
                (Int64.add addr (Int64.of_int (i * Ty.size_bytes g.gty)))
                (match c with
                | Cint (_, x) -> Bits.Int x
                | Cfloat (_, f) -> Bits.Float f
                | Cnull -> Bits.Int 0L))
            init)
    m.globals;
  let resolve f =
    match List.assq_opt f !resolved with
    | Some rf -> rf
    | None ->
        let rf = resolve m f in
        resolved := (f, rf) :: !resolved;
        rf
  in
  (* events are built only when someone listens *)
  let observed = Option.is_some on_exec in
  let notify ?operands fr blk instr result =
    match on_exec with
    | None -> ()
    | Some f ->
        let ev_operands =
          match operands with Some ops -> ops | None -> List.map (box fr) (used_values instr)
        in
        f { ev_instr = instr; ev_block = blk.label; ev_operands; ev_result = result }
  in
  let rec exec depth (f : func) (actuals : Bits.t list) =
    if depth > 256 then raise (Trap "call stack overflow");
    let rf = resolve f in
    let fr = { rf; regs = Bytes.copy rf.slots; defined = Bytes.copy rf.set } in
    if List.compare_lengths f.params actuals <> 0 then
      raise (Trap (Printf.sprintf "%s: arity mismatch" f.fname));
    List.iter2 (fun (p : var) v -> write fr p.id (to_register p.ty v)) f.params actuals;
    let result blk pc ty p = notify fr blk blk.instrs.(pc) (Some (Bits.of_payload ty p)) in
    let rec step blk pc =
      match blk.ops.(pc) with
      | Fall_through ->
          raise (Trap (Printf.sprintf "block %s fell through without terminator" blk.label))
      | op -> (
          spend ();
          match op with
          | Arith { dst; ty; op; a; b } ->
              let x = read fr a in
              let y = read fr b in
              (try write fr dst (Bits.Payload.binop op ty x y)
               with Division_by_zero ->
                 raise
                   (Trap
                      (Printf.sprintf "division by zero in @%s, block %%%s, at: %s" f.fname
                         blk.label
                         (Format.asprintf "%a" Pp.instr blk.instrs.(pc)))));
              if observed then result blk pc ty (get64 fr.regs (8 * dst));
              step blk (pc + 1)
          | Int_cmp { dst; ty; pred; a; b } ->
              let x = read fr a in
              let y = read fr b in
              write fr dst (Bits.Payload.icmp pred ty x y);
              if observed then result blk pc Ty.I1 (get64 fr.regs (8 * dst));
              step blk (pc + 1)
          | Float_cmp { dst; pred; a; b } ->
              let x = read fr a in
              let y = read fr b in
              write fr dst (Bits.Payload.fcmp pred x y);
              if observed then result blk pc Ty.I1 (get64 fr.regs (8 * dst));
              step blk (pc + 1)
          | Convert { dst; op; src_ty; dst_ty; a } ->
              let r = Bits.Payload.cast op ~src_ty ~dst_ty (read fr a) in
              write fr dst (Bits.Payload.truncate dst_ty r);
              if observed then result blk pc dst_ty r;
              step blk (pc + 1)
          | Choose { dst; ty; cond_ty; c; t; f } ->
              let p = if Bits.Payload.to_bool cond_ty (read fr c) then read fr t else read fr f in
              write fr dst (Bits.Payload.truncate ty p);
              if observed then result blk pc ty p;
              step blk (pc + 1)
          | Read { dst; ty; addr } ->
              let a = read fr addr in
              if Int64.equal a 0L then raise (Trap "null pointer load");
              Memory.load_into mem ty (Int64.to_int a) fr.regs (8 * dst);
              (* the memory returns an i32 sign-extended; the register
                 holds it masked, the event shows it as loaded *)
              let raw = get64 fr.regs (8 * dst) in
              write fr dst (Bits.Payload.truncate ty raw);
              if observed then result blk pc ty raw;
              step blk (pc + 1)
          | Write { ty; src; addr } ->
              let a = read fr addr in
              if Int64.equal a 0L then raise (Trap "null pointer store");
              ignore (read fr src : int64);
              Memory.store_from mem ty (Int64.to_int a) fr.regs (8 * src);
              if observed then notify fr blk blk.instrs.(pc) None;
              step blk (pc + 1)
          | Address { dst; base; scales; idxs; idx_tys } ->
              let acc = ref (read fr base) in
              for i = 0 to Array.length scales - 1 do
                let idx = Bits.Payload.signed idx_tys.(i) (read fr idxs.(i)) in
                acc := Int64.add !acc (Int64.mul (Int64.of_int scales.(i)) idx)
              done;
              write fr dst !acc;
              if observed then result blk pc Ty.Ptr !acc;
              step blk (pc + 1)
          | Stack { dst; bytes } ->
              let addr = Memory.alloc mem ~bytes ~align:8 in
              write fr dst addr;
              if observed then result blk pc Ty.Ptr addr;
              step blk (pc + 1)
          | Invoke { dst; callee; name; args } ->
              let actuals = List.map (fun (s, ty) -> Bits.of_payload ty (read fr s)) args in
              let r =
                match callee with
                | Defined g -> (
                    let r = exec (depth + 1) g actuals in
                    match (dst, r) with
                    | Some d, Some v ->
                        write fr d.id (to_register d.ty v);
                        r
                    | None, _ -> r
                    | Some d, None ->
                        raise (Trap (Printf.sprintf "call to void %s assigns %s" name d.vname)))
                | Intrinsic impl ->
                    let r = impl actuals in
                    Option.iter (fun (d : var) -> write fr d.id (to_register d.ty r)) dst;
                    Some r
                | Unknown -> raise (Trap ("unknown callee @" ^ name))
              in
              if observed then notify fr blk blk.instrs.(pc) r;
              step blk (pc + 1)
          | Jump e ->
              if observed then notify fr blk blk.instrs.(pc) None;
              take e
          | Branch { c; cond_ty; if_true; if_false } ->
              if observed then notify fr blk blk.instrs.(pc) None;
              take (if Bits.Payload.to_bool cond_ty (read fr c) then if_true else if_false)
          | Return v ->
              let r = Option.map (fun (s, ty) -> Bits.of_payload ty (read fr s)) v in
              if observed then notify fr blk blk.instrs.(pc) r;
              r
          | Fall_through -> assert false)
    (* Phis read their inputs atomically with respect to the edge: all
       sources go to scratch slots before any phi is written. *)
    and take e =
      if e.target < 0 then raise (Trap ("branch to unknown label " ^ e.target_label));
      let n = Array.length e.srcs in
      for i = 0 to n - 1 do
        set64 fr.regs (8 * (rf.scratch + i)) (read fr e.srcs.(i))
      done;
      Option.iter (fun msg -> raise (Trap msg)) e.missing;
      let next = rf.blocks.(e.target) in
      for i = 0 to n - 1 do
        let d = next.phi_dsts.(i) in
        let p = get64 fr.regs (8 * (rf.scratch + i)) in
        write fr d.id (Bits.Payload.truncate d.ty p);
        spend ();
        (* only the selected incoming operand is observable: values
           from untaken edges may not exist yet *)
        if observed then
          let v = Bits.of_payload e.src_tys.(i) p in
          notify ~operands:[ v ] fr next next.phis.(i) (Some v)
      done;
      step next 0
    in
    ignore (entry_block f : block) (* raises for a function without blocks *);
    let first = rf.blocks.(0) in
    if Array.length first.phis > 0 then raise (Trap "phi in entry block");
    step first 0
  in
  match find_func m entry with
  | Some f -> exec 0 f args
  | None -> raise (Trap ("no such function @" ^ entry))

let run ?(fuel = 100_000_000) ?on_exec mem m ~entry ~args =
  run_resolved (ref []) ~fuel ?on_exec mem m ~entry ~args

let run_each ?(fuel = 100_000_000) mem m ~entry ~args ~invocations f =
  let resolved = ref [] in
  for _ = 1 to invocations do
    f (run_resolved resolved ~fuel mem m ~entry ~args)
  done
