(* Schedule specialization pre-pass.

   The dynamic engine re-derives the same import decisions for every
   dynamic instance of a block: operand constants are re-truncated, phi
   incomings are re-searched per predecessor, reader registration
   re-matches operand variants. This pass runs once per datapath and
   compiles every (block, predecessor) pair into a dense array of [row]s
   — branch-free replay templates the engine's compiled import path walks
   directly. *)

open Salam_ir
module Datapath = Salam_cdfg.Datapath

type plan =
  | Pimm of int64
      (** constant operand: its payload, already truncated to its type *)
  | Preg of { var : Ast.var; read_pj : float }
      (** register operand; [read_pj] is the register-file read energy
          charged when the value is captured from a committed writer *)

type row = {
  r_node : Datapath.node;
  r_plans : plan array;
  r_def : Ast.var option;
  r_readers : Ast.var array;
      (** non-parameter register operands in source order (duplicates
          kept) — the WAR reader registrations this instance performs *)
}

type variant =
  | Rows of row array
  | Invalid of string
      (** importing along this edge is malformed; the payload is the
          exact error the dynamic path would raise *)

type block_schedule = {
  bs_label : string;
  bs_size : int;  (** rows per variant — the reservation-room requirement *)
  bs_has_phi : bool;
  bs_variants : (string * variant) array;
      (** keyed by predecessor label; a single [("*", v)] entry when the
          block has no phis and compiles identically for every pred *)
}

type edge = {
  e_size : int;
  e_rows : variant;
  e_phis : int;
      (** leading phi rows whose operands must all be captured before
          any of them registers its destination (some phi reads an
          earlier phi of the block); 0 when capture order cannot
          matter *)
}

type t = {
  blocks : (string, block_schedule) Hashtbl.t;
  succs : edge array array;
      (** by [Datapath.n_id]: a [Br]'s edge, a [Cond_br]'s true and
          false edges, nothing for other nodes *)
  entry_edge : edge;
}

let plan_of_value ~read_pj_per_bit (v : Ast.value) =
  match v with
  | Ast.Const (Ast.Cint (ty, x)) -> Pimm (Bits.payload (Bits.truncate ty (Bits.Int x)))
  | Ast.Const (Ast.Cfloat (ty, x)) -> Pimm (Bits.payload (Bits.truncate ty (Bits.Float x)))
  | Ast.Const Ast.Cnull -> Pimm 0L
  | Ast.Var var ->
      Preg { var; read_pj = float_of_int (Ty.bits var.ty) *. read_pj_per_bit }

(* the rows of [bs] along the edge from [pred] *)
let variant bs ~pred =
  if not bs.bs_has_phi then snd bs.bs_variants.(0)
  else
    let vs = bs.bs_variants in
    let rec find i =
      if i >= Array.length vs then
        (* not a CFG edge: the dynamic path's per-phi search would miss *)
        Invalid (Printf.sprintf "Engine: phi in %s lacks incoming for %s" bs.bs_label pred)
      else
        let p, v = vs.(i) in
        if p = pred then v else find (i + 1)
    in
    find 0

let is_phi_row r = match r.r_node.Datapath.instr with Ast.Phi _ -> true | _ -> false

let defines r (v : Ast.var) = match r.r_def with Some d -> d.Ast.id = v.Ast.id | None -> false

(* some row of [rows] before [i] defines [v] *)
let rec defined_before rows i v = i > 0 && (defines rows.(i - 1) v || defined_before rows (i - 1) v)

(* some register operand of row [i] from its [k]th on is defined by an
   earlier row *)
let rec reads_earlier rows i k =
  let plans = rows.(i).r_plans in
  k < Array.length plans
  && ((match plans.(k) with Preg { var; _ } -> defined_before rows i var | Pimm _ -> false)
     || reads_earlier rows i (k + 1))

(* LLVM phis are parallel copies: each reads its operand as it was on
   entry to the block. When a phi reads the destination of an earlier
   phi of the same block, the leading phi rows must capture every
   operand before any registers its destination; their count, else 0. *)
let parallel_phis = function
  | Invalid _ -> 0
  | Rows rows ->
      let n = ref 0 in
      while !n < Array.length rows && is_phi_row rows.(!n) do
        incr n
      done;
      let rec any i = i < !n && (reads_earlier rows i 0 || any (i + 1)) in
      if any 0 then !n else 0

let edge_of blocks label ~pred =
  match Hashtbl.find_opt blocks label with
  | None -> { e_size = 0; e_rows = Invalid ("Engine: unknown block " ^ label); e_phis = 0 }
  | Some bs ->
      let rows = variant bs ~pred in
      { e_size = bs.bs_size; e_rows = rows; e_phis = parallel_phis rows }

let rec is_param (params : Ast.var list) (v : Ast.var) =
  match params with [] -> false | p :: ps -> p.Ast.id = v.Ast.id || is_param ps v

let no_var = { Ast.id = -1; vname = ""; ty = Ty.I1 }

(* The row of [n] reading [sources]: one plan per source, and the
   non-parameter registers among them as its readers. *)
let row_of ~read_pj_per_bit ~params (n : Datapath.node) (sources : Ast.value array) =
  let len = Array.length sources in
  let plans = if len = 0 then [||] else Array.make len (Pimm 0L) in
  let k = ref 0 in
  for i = 0 to len - 1 do
    plans.(i) <- plan_of_value ~read_pj_per_bit sources.(i);
    match sources.(i) with Ast.Var v when not (is_param params v) -> incr k | _ -> ()
  done;
  let readers = if !k = 0 then [||] else Array.make !k no_var in
  k := 0;
  for i = 0 to len - 1 do
    match sources.(i) with
    | Ast.Var v when not (is_param params v) ->
        readers.(!k) <- v;
        incr k
    | _ -> ()
  done;
  { r_node = n; r_plans = plans; r_def = Ast.defined_var n.Datapath.instr; r_readers = readers }

let rec incoming_from pred = function
  | [] -> None
  | (v, l) :: rest -> if l = pred then Some v else incoming_from pred rest

let compile (dp : Datapath.t) =
  let read_pj_per_bit = dp.Datapath.profile.Salam_hw.Profile.reg_read_pj_per_bit in
  let params = dp.Datapath.func.Ast.params in
  let nodes = dp.Datapath.nodes in
  let cfg = dp.Datapath.cfg in
  let entry = (Ast.entry_block dp.Datapath.func).Ast.label in
  let row_of = row_of ~read_pj_per_bit ~params in
  (* the schedule of the block whose nodes are [nodes.(lo .. hi - 1)] *)
  let block_schedule label lo hi =
    let size = hi - lo in
    let has_phi = ref false in
    (* rows of non-phi nodes are the same along every edge: built once;
       phi rows are filled per predecessor *)
    let base =
      Array.init size (fun i ->
          let n = nodes.(lo + i) in
          match n.Datapath.instr with
          | Ast.Phi _ ->
              has_phi := true;
              row_of n [||]
          | instr -> row_of n (Ast.operands instr))
    in
    let rows_for_pred pred =
      let rows = Array.copy base in
      let missing = ref false in
      for i = 0 to size - 1 do
        match rows.(i).r_node.Datapath.instr with
        | Ast.Phi { incoming; _ } -> (
            match incoming_from pred incoming with
            | Some v -> rows.(i) <- row_of rows.(i).r_node [| v |]
            | None -> missing := true)
        | _ -> ()
      done;
      if !missing then Invalid (Printf.sprintf "Engine: phi in %s lacks incoming for %s" label pred)
      else Rows rows
    in
    let variants =
      if not !has_phi then [| ("*", Rows base) |]
      else begin
        (* one variant per CFG predecessor; the entry block is also
           importable along the synthetic "<entry>" edge *)
        let idx = Salam_ir.Cfg.index_of_label cfg label in
        let preds = List.map (Salam_ir.Cfg.label_of_index cfg) (Salam_ir.Cfg.preds cfg idx) in
        let preds = if label = entry then "<entry>" :: preds else preds in
        Array.of_list (List.map (fun p -> (p, rows_for_pred p)) preds)
      end
    in
    { bs_label = label; bs_size = size; bs_has_phi = !has_phi; bs_variants = variants }
  in
  (* a block's nodes are contiguous in [nodes], which is in program order *)
  let blocks = Hashtbl.create 16 in
  let lo = ref 0 in
  while !lo < Array.length nodes do
    let label = nodes.(!lo).Datapath.block in
    let hi = ref (!lo + 1) in
    while !hi < Array.length nodes && nodes.(!hi).Datapath.block = label do
      incr hi
    done;
    Hashtbl.replace blocks label (block_schedule label !lo !hi);
    lo := !hi
  done;
  let edge label ~pred = edge_of blocks label ~pred in
  let succs =
    Array.map
      (fun (n : Datapath.node) ->
        match n.Datapath.instr with
        | Ast.Br target -> [| edge target ~pred:n.Datapath.block |]
        | Ast.Cond_br { if_true; if_false; _ } ->
            [| edge if_true ~pred:n.Datapath.block; edge if_false ~pred:n.Datapath.block |]
        | _ -> [||])
      nodes
  in
  { blocks; succs; entry_edge = edge entry ~pred:"<entry>" }

let edge t ~label ~pred = edge_of t.blocks label ~pred

let successors t (n : Datapath.node) = t.succs.(n.Datapath.n_id)

let entry t = t.entry_edge

let edge_size e = e.e_size

let edge_rows e = match e.e_rows with Rows r -> r | Invalid msg -> invalid_arg msg

let edge_phis e = e.e_phis
