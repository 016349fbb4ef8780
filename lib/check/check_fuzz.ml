open Salam_ir
open Salam_frontend
module W = Salam_workloads.Workload
module Rng = Salam_sim.Rng

(* Every generated kernel works over one f64 array [a] and one i32 array
   [b], both of [n_elems] elements. Array indices are either literals in
   [0, n_elems) or loop indices of enclosing loops whose bounds never
   exceed [n_elems], so generated kernels are in-bounds by
   construction. Division is only ever by a non-zero literal, so they
   are also trap-free by construction: any trap is a finding. *)
let n_elems = 16

(* A generated kernel as a workload with deterministic input data and a
   vacuous golden model (the oracle is the interpreter). *)
let workload_of_kernel name (k : Lang.kernel) : W.t =
  {
    W.name;
    kernel = k;
    buffers = [ ("a", n_elems * 8); ("b", n_elems * 4) ];
    scalar_args = [];
    init =
      (fun rng mem bases ->
        Memory.write_f64_array mem bases.(0)
          (Array.init n_elems (fun _ -> Rng.float rng 16.0 -. 8.0));
        Memory.write_i32_array mem bases.(1)
          (Array.init n_elems (fun _ -> Rng.int rng 256 - 128)));
    check = (fun _ _ -> true);
  }

(* --- generator --------------------------------------------------------- *)

type gctx = { rng : Rng.t; mutable loops : string list; mutable fresh : int }

let pick ctx xs = List.nth xs (Rng.int ctx.rng (List.length xs))

let gen_index ctx =
  match ctx.loops with
  | [] -> Lang.Int_lit (Int64.of_int (Rng.int ctx.rng n_elems))
  | ls ->
      if Rng.bool ctx.rng then Lang.Int_lit (Int64.of_int (Rng.int ctx.rng n_elems))
      else Lang.Var (pick ctx ls)

let rec gen_iexpr ctx depth =
  if depth <= 0 || Rng.int ctx.rng 3 = 0 then
    match Rng.int ctx.rng 4 with
    | 0 -> Lang.Int_lit (Int64.of_int (Rng.int ctx.rng 64))
    | 1 -> Lang.Var (pick ctx [ "t0"; "t1" ])
    | 2 -> Lang.Index ("b", [ gen_index ctx ])
    | _ -> (
        match ctx.loops with
        | [] -> Lang.Var (pick ctx [ "t0"; "t1" ])
        | ls -> Lang.Var (pick ctx ls))
  else
    match Rng.int ctx.rng 5 with
    | 0 -> Lang.Binop (Lang.Add, gen_iexpr ctx (depth - 1), gen_iexpr ctx (depth - 1))
    | 1 -> Lang.Binop (Lang.Sub, gen_iexpr ctx (depth - 1), gen_iexpr ctx (depth - 1))
    | 2 -> Lang.Binop (Lang.Mul, gen_iexpr ctx (depth - 1), gen_iexpr ctx (depth - 1))
    | 3 ->
        (* divisor is a non-zero literal: division by zero cannot occur
           by construction, so any trap is a real finding *)
        Lang.Binop
          (Lang.Div, gen_iexpr ctx (depth - 1), Lang.Int_lit (Int64.of_int (1 + Rng.int ctx.rng 9)))
    | _ ->
        Lang.Binop
          (Lang.Rem, gen_iexpr ctx (depth - 1), Lang.Int_lit (Int64.of_int (1 + Rng.int ctx.rng 9)))

let rec gen_fexpr ctx depth =
  if depth <= 0 || Rng.int ctx.rng 3 = 0 then
    match Rng.int ctx.rng 3 with
    | 0 ->
        (* eighths are exact in binary, keeping printed counterexamples
           round-trippable *)
        Lang.Float_lit (float_of_int (Rng.int ctx.rng 128 - 64) /. 8.0)
    | 1 -> Lang.Var (pick ctx [ "x"; "y" ])
    | _ -> Lang.Index ("a", [ gen_index ctx ])
  else
    match Rng.int ctx.rng 5 with
    | 0 -> Lang.Binop (Lang.Add, gen_fexpr ctx (depth - 1), gen_fexpr ctx (depth - 1))
    | 1 -> Lang.Binop (Lang.Sub, gen_fexpr ctx (depth - 1), gen_fexpr ctx (depth - 1))
    | 2 | 3 -> Lang.Binop (Lang.Mul, gen_fexpr ctx (depth - 1), gen_fexpr ctx (depth - 1))
    | _ ->
        Lang.Binop
          (Lang.Div, gen_fexpr ctx (depth - 1),
           Lang.Float_lit (float_of_int (1 + Rng.int ctx.rng 4)))

let gen_cond ctx = Lang.Cmp (pick ctx [ Lang.Lt; Lang.Le; Lang.Gt; Lang.Eq ],
                             gen_iexpr ctx 1, gen_iexpr ctx 1)

let rec gen_stmt ctx depth =
  match Rng.int ctx.rng (if depth > 0 then 7 else 5) with
  | 0 -> Lang.Assign (pick ctx [ "x"; "y" ], gen_fexpr ctx 2)
  | 1 -> Lang.Assign (pick ctx [ "t0"; "t1" ], gen_iexpr ctx 2)
  | 2 -> Lang.Store ("a", [ gen_index ctx ], gen_fexpr ctx 2)
  | 3 -> Lang.Store ("b", [ gen_index ctx ], gen_iexpr ctx 2)
  | 4 -> Lang.Store ("a", [ gen_index ctx ], gen_fexpr ctx 2)
  | 5 -> Lang.If (gen_cond ctx, gen_block ctx (depth - 1) (1 + Rng.int ctx.rng 2),
                  gen_block ctx (depth - 1) (Rng.int ctx.rng 2))
  | _ ->
      let index = Printf.sprintf "k%d" ctx.fresh in
      ctx.fresh <- ctx.fresh + 1;
      let trips = 2 + Rng.int ctx.rng 7 in
      let unroll = pick ctx [ 1; 1; 2; 4 ] in
      let saved = ctx.loops in
      ctx.loops <- index :: ctx.loops;
      let body = gen_block ctx (depth - 1) (1 + Rng.int ctx.rng 3) in
      ctx.loops <- saved;
      Lang.For
        {
          Lang.index;
          from_ = Lang.Int_lit 0L;
          to_ = Lang.Int_lit (Int64.of_int trips);
          unroll;
          body;
        }

and gen_block ctx depth n = List.init n (fun _ -> gen_stmt ctx depth)

let gen_kernel ~seed ~case =
  let rng = Rng.create (Int64.logxor seed (Int64.mul (Int64.of_int (case + 1)) 0x9E3779B97F4A7C15L)) in
  let ctx = { rng; loops = []; fresh = 0 } in
  let body =
    [
      Lang.Decl (Ty.F64, "x", Some (Lang.Float_lit 1.0));
      Lang.Decl (Ty.F64, "y", Some (Lang.Float_lit 2.0));
      Lang.Decl (Ty.I32, "t0", Some (Lang.Int_lit 3L));
      Lang.Decl (Ty.I32, "t1", Some (Lang.Int_lit 5L));
    ]
    @ gen_block ctx 2 (3 + Rng.int rng 4)
  in
  {
    Lang.kname = Printf.sprintf "fuzz_%d" case;
    ret = Ty.Void;
    params = [ Lang.array "a" Ty.F64 [ n_elems ]; Lang.array "b" Ty.I32 [ n_elems ] ];
    body;
  }

(* --- kernel printing (for counterexample reports) ---------------------- *)

let rec pp_expr ppf (e : Lang.expr) =
  match e with
  | Lang.Int_lit i -> Format.fprintf ppf "%Ld" i
  | Lang.Float_lit f -> Format.fprintf ppf "%h" f
  | Lang.Var v -> Format.pp_print_string ppf v
  | Lang.Index (a, idx) ->
      Format.fprintf ppf "%s%a" a
        (Format.pp_print_list (fun ppf e -> Format.fprintf ppf "[%a]" pp_expr e))
        idx
  | Lang.Addr_of (a, idx) ->
      Format.fprintf ppf "&%s%a" a
        (Format.pp_print_list (fun ppf e -> Format.fprintf ppf "[%a]" pp_expr e))
        idx
  | Lang.Binop (op, l, r) ->
      let s =
        match op with
        | Lang.Add -> "+" | Lang.Sub -> "-" | Lang.Mul -> "*" | Lang.Div -> "/"
        | Lang.Rem -> "%" | Lang.Shl -> "<<" | Lang.Shr -> ">>"
        | Lang.Band -> "&" | Lang.Bor -> "|" | Lang.Bxor -> "^"
      in
      Format.fprintf ppf "(%a %s %a)" pp_expr l s pp_expr r
  | Lang.Neg e -> Format.fprintf ppf "(-%a)" pp_expr e
  | Lang.Cmp (c, l, r) ->
      let s =
        match c with
        | Lang.Lt -> "<" | Lang.Le -> "<=" | Lang.Gt -> ">"
        | Lang.Ge -> ">=" | Lang.Eq -> "==" | Lang.Ne -> "!="
      in
      Format.fprintf ppf "(%a %s %a)" pp_expr l s pp_expr r
  | Lang.Not e -> Format.fprintf ppf "(!%a)" pp_expr e
  | Lang.And (l, r) -> Format.fprintf ppf "(%a && %a)" pp_expr l pp_expr r
  | Lang.Or (l, r) -> Format.fprintf ppf "(%a || %a)" pp_expr l pp_expr r
  | Lang.Cond (c, t, e) -> Format.fprintf ppf "(%a ? %a : %a)" pp_expr c pp_expr t pp_expr e
  | Lang.Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_expr)
        args
  | Lang.Cast (ty, e) -> Format.fprintf ppf "(%s)%a" (Ty.to_string ty) pp_expr e

let rec pp_stmt ppf (s : Lang.stmt) =
  match s with
  | Lang.Decl (ty, n, e) ->
      Format.fprintf ppf "@[<h>%s %s%a;@]" (Ty.to_string ty) n
        (Format.pp_print_option (fun ppf e -> Format.fprintf ppf " = %a" pp_expr e))
        e
  | Lang.Assign (n, e) -> Format.fprintf ppf "@[<h>%s = %a;@]" n pp_expr e
  | Lang.Store (a, idx, e) ->
      Format.fprintf ppf "@[<h>%a = %a;@]" pp_expr (Lang.Index (a, idx)) pp_expr e
  | Lang.Store_ptr (p, ty, e) ->
      Format.fprintf ppf "@[<h>*(%s*)%a = %a;@]" (Ty.to_string ty) pp_expr p pp_expr e
  | Lang.If (c, t, e) ->
      Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}" pp_expr c pp_block t;
      if e <> [] then Format.fprintf ppf "@[<v 2> else {@,%a@]@,}" pp_block e
  | Lang.For fl ->
      Format.fprintf ppf "@[<v 2>for %s in [%a, %a) unroll %d {@,%a@]@,}" fl.Lang.index
        pp_expr fl.Lang.from_ pp_expr fl.Lang.to_ fl.Lang.unroll pp_block
        fl.Lang.body
  | Lang.While (c, b) -> Format.fprintf ppf "@[<v 2>while %a {@,%a@]@,}" pp_expr c pp_block b
  | Lang.Expr_stmt e -> Format.fprintf ppf "@[<h>%a;@]" pp_expr e
  | Lang.Return e ->
      Format.fprintf ppf "@[<h>return%a;@]"
        (Format.pp_print_option (fun ppf e -> Format.fprintf ppf " %a" pp_expr e))
        e

and pp_block ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf stmts

let pp_kernel ppf (k : Lang.kernel) =
  Format.fprintf ppf "@[<v 2>kernel %s(%s) {@,%a@]@,}" k.Lang.kname
    (String.concat ", "
       (List.map
          (fun (p : Lang.param) ->
            match p.Lang.dims with
            | [] -> Ty.to_string p.Lang.elem ^ " " ^ p.Lang.pname
            | dims ->
                Ty.to_string p.Lang.elem ^ " " ^ p.Lang.pname
                ^ String.concat "" (List.map (Printf.sprintf "[%d]") dims))
          k.Lang.params))
    pp_block k.Lang.body

let kernel_to_string k = Format.asprintf "%a" pp_kernel k

(* --- planted bugs ------------------------------------------------------ *)

(* Flip the first floating-point add to a subtract (or, failing that,
   the first multiply to an add). Only float arithmetic is touched:
   integer and control instructions feed loop bounds and addresses, and
   corrupting those could turn a terminating kernel into an infinite
   loop instead of a wrong answer. *)
let plant_float_bug (f : Ast.func) =
  let planted = ref false in
  let flip target replacement =
    Ast.map_instrs f (fun instr ->
        match instr with
        | Ast.Binop ({ op; _ } as b) when (not !planted) && op = target ->
            planted := true;
            Ast.Binop { b with op = replacement }
        | _ -> instr)
  in
  flip Ast.Fadd Ast.Fsub;
  if not !planted then flip Ast.Fmul Ast.Fadd;
  f

(* --- shrinking --------------------------------------------------------- *)

(* One-step shrink candidates of a statement list: delete a statement,
   unwrap a loop to a single iteration, collapse an [if] to one branch,
   or shrink inside a nested block. *)
let rec shrink_stmts stmts =
  let cands = ref [] in
  List.iteri
    (fun i s ->
      let replace rs = List.concat (List.mapi (fun j s' -> if i = j then rs else [ s' ]) stmts) in
      cands := replace [] :: !cands;
      (match s with
      | Lang.For fl ->
          cands :=
            replace (Lang.Decl (Ty.I32, fl.Lang.index, Some fl.Lang.from_) :: fl.Lang.body)
            :: !cands;
          List.iter
            (fun body' -> cands := replace [ Lang.For { fl with Lang.body = body' } ] :: !cands)
            (shrink_stmts fl.Lang.body)
      | Lang.If (c, t, e) ->
          cands := replace t :: replace e :: !cands;
          List.iter
            (fun t' -> cands := replace [ Lang.If (c, t', e) ] :: !cands)
            (shrink_stmts t);
          List.iter
            (fun e' -> cands := replace [ Lang.If (c, t, e') ] :: !cands)
            (shrink_stmts e)
      | _ -> ()))
    stmts;
  List.rev !cands

let shrink ~max_attempts ~still_fails (k : Lang.kernel) =
  let attempts = ref 0 in
  let rec go k =
    let next =
      List.find_opt
        (fun body ->
          !attempts < max_attempts
          && begin
               incr attempts;
               still_fails { k with Lang.body }
             end)
        (shrink_stmts k.Lang.body)
    in
    match next with Some body -> go { k with Lang.body } | None -> k
  in
  go k

(* --- campaign ---------------------------------------------------------- *)

type failure_kind =
  | Compile_failure of string
  | Oracle of Check_oracle.failure
  | Snapshot of string
      (** a fast-forwarded run diverged from the uninterrupted one *)

type case_failure = {
  cf_case : int;
  cf_kernel : Lang.kernel;
  cf_shrunk : Lang.kernel;
  cf_failure : failure_kind;
  cf_trace : string list;
      (** last engine-side trace events of the shrunk reproduction *)
}

(* Events kept when re-running a shrunk failure under a ring sink. *)
let trace_ring_capacity = 32

let failure_kind_to_string = function
  | Compile_failure msg -> "frontend rejected generated kernel: " ^ msg
  | Oracle f -> Check_oracle.failure_to_string f
  | Snapshot msg -> "snapshot: " ^ msg

(* Run one generated kernel through the oracle: the interpreter-vs-engine
   leg first, then — when it agrees — the compiled-vs-dynamic engine leg,
   which must also be bit-identical. Compilation happens twice on
   purpose: [Ast.func] is mutable, so the engine side (and any planted
   mutation) must get its own copy. *)
let run_kernel ?mutate ?(config = Salam.Config.default) ?trace ~data_seed kernel =
  let config = { config with Salam.Config.seed = data_seed } in
  match Compile.kernel kernel with
  | exception Compile.Error msg -> Some (Compile_failure msg)
  | exception Lower.Error msg -> Some (Compile_failure msg)
  | func -> (
      let engine_func =
        match mutate with None -> None | Some m -> Some (m (Compile.kernel kernel))
      in
      let w = workload_of_kernel kernel.Lang.kname kernel in
      match
        Check_oracle.check_workload ~config ~func ?engine_func ?trace w
      with
      | Error f -> Some (Oracle f)
      | Ok () -> (
          (* both modes run the same (possibly mutated) function: a
             planted functional bug is the interp leg's to catch, this leg
             owns scheduling-equivalence *)
          let mode_func =
            match engine_func with Some f -> f | None -> func
          in
          match
            Check_oracle.check_modes ~config ~func:mode_func ?trace w
          with
          | Error f -> Some (Oracle f)
          | Ok () -> (
              (* snapshot leg: fast-forwarding to a mid-schedule roadmark
                 must be bit-identical. Runs on the same (possibly
                 mutated) function — the leg is self-consistent, so a
                 planted functional bug stays the interp leg's catch. *)
              match
                Check_snapshot.check_fast_forward ~config ~func:mode_func ~roadmark:1
                  ~invocations:2 w
              with
              | Ok () -> None
              | Error msg -> Some (Snapshot msg))))

(* Replay a failing (shrunk) kernel under a bounded ring sink and return
   the tail of the engine-side event stream — the crash-dump context a
   report prints alongside the counterexample. *)
let capture_trace ?mutate ?config ~data_seed kernel =
  let sink = Salam_obs.Trace.create ~ring:trace_ring_capacity () in
  (match run_kernel ?mutate ?config ~trace:sink ~data_seed kernel with
  | Some _ | None -> ());
  Salam_obs.Trace.to_lines sink

let run ?mutate ?config ~seed ~count () =
  let failures = ref [] in
  for case = 0 to count - 1 do
    let kernel = gen_kernel ~seed ~case in
    let data_seed = Int64.add seed (Int64.of_int case) in
    match run_kernel ?mutate ?config ~data_seed kernel with
    | None -> ()
    | Some failure ->
        (* a shrink candidate must reproduce the same kind of failure:
           deleting a declaration that is still referenced produces a
           compile error, which must not pass for an oracle divergence *)
        let same_kind f =
          match (f, failure) with
          | Compile_failure _, Compile_failure _ -> true
          | Oracle _, Oracle _ -> true
          | Snapshot _, Snapshot _ -> true
          | (Compile_failure _ | Oracle _ | Snapshot _), _ -> false
        in
        let still_fails k =
          match run_kernel ?mutate ?config ~data_seed k with
          | Some f -> same_kind f
          | None -> false
        in
        let shrunk = shrink ~max_attempts:200 ~still_fails kernel in
        let cf_trace = capture_trace ?mutate ?config ~data_seed shrunk in
        failures :=
          {
            cf_case = case;
            cf_kernel = kernel;
            cf_shrunk = shrunk;
            cf_failure = failure;
            cf_trace;
          }
          :: !failures
  done;
  List.rev !failures
