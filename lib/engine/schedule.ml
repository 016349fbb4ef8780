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

(* LLVM phis are parallel copies: each reads its operand as it was on
   entry to the block. When a phi reads the destination of an earlier
   phi of the same block, the leading phi rows must capture every
   operand before any registers its destination; their count, else 0. *)
let parallel_phis = function
  | Invalid _ -> 0
  | Rows rows ->
      let n = ref 0 in
      let is_phi i = match rows.(i).r_node.Datapath.instr with Ast.Phi _ -> true | _ -> false in
      while !n < Array.length rows && is_phi !n do
        incr n
      done;
      let defines j (v : Ast.var) =
        match rows.(j).r_def with Some d -> d.Ast.id = v.Ast.id | None -> false
      in
      let reads_earlier i =
        Array.exists
          (function
            | Preg { var; _ } -> List.exists (fun j -> defines j var) (List.init i Fun.id)
            | Pimm _ -> false)
          rows.(i).r_plans
      in
      let rec any i = i < !n && (reads_earlier i || any (i + 1)) in
      if any 0 then !n else 0

let edge_of blocks label ~pred =
  match Hashtbl.find_opt blocks label with
  | None -> { e_size = 0; e_rows = Invalid ("Engine: unknown block " ^ label); e_phis = 0 }
  | Some bs ->
      let rows = variant bs ~pred in
      { e_size = bs.bs_size; e_rows = rows; e_phis = parallel_phis rows }

let compile (dp : Datapath.t) =
  let profile = dp.Datapath.profile in
  let read_pj_per_bit = profile.Salam_hw.Profile.reg_read_pj_per_bit in
  let is_param =
    let m = Hashtbl.create 8 in
    List.iter (fun (p : Ast.var) -> Hashtbl.replace m p.Ast.id ()) dp.Datapath.func.Ast.params;
    fun (v : Ast.var) -> Hashtbl.mem m v.Ast.id
  in
  (* group nodes per block, newest first *)
  let by_block = Hashtbl.create 16 in
  Array.iter
    (fun (n : Datapath.node) ->
      let ns = Option.value ~default:[] (Hashtbl.find_opt by_block n.Datapath.block) in
      Hashtbl.replace by_block n.Datapath.block (n :: ns))
    dp.Datapath.nodes;
  let blocks = Hashtbl.create 16 in
  Hashtbl.iter
    (fun label rev_nodes ->
      let nodes = Array.of_list (List.rev rev_nodes) in
      (* row template shared by every variant; phi rows are filled per pred *)
      let mk_row (n : Datapath.node) (sources : Ast.value array) =
        let instr = n.Datapath.instr in
        let readers =
          Array.of_list
            (List.filter_map
               (function Ast.Var v when not (is_param v) -> Some v | _ -> None)
               (Array.to_list sources))
        in
        {
          r_node = n;
          r_plans = Array.map (plan_of_value ~read_pj_per_bit) sources;
          r_def = Ast.defined_var instr;
          r_readers = readers;
        }
      in
      let has_phi =
        Array.exists
          (fun (n : Datapath.node) ->
            match n.Datapath.instr with Ast.Phi _ -> true | _ -> false)
          nodes
      in
      let rows_for_pred pred =
        let missing = ref None in
        let rows =
          Array.map
            (fun (n : Datapath.node) ->
              match n.Datapath.instr with
              | Ast.Phi { incoming; _ } -> (
                  match List.find_opt (fun (_, l) -> l = pred) incoming with
                  | Some (v, _) -> mk_row n [| v |]
                  | None ->
                      if !missing = None then
                        missing :=
                          Some
                            (Printf.sprintf "Engine: phi in %s lacks incoming for %s" label pred);
                      mk_row n [||])
              | instr -> mk_row n (Ast.operands instr))
            nodes
        in
        match !missing with Some msg -> Invalid msg | None -> Rows rows
      in
      let variants =
        if not has_phi then [| ("*", rows_for_pred "*") |]
        else begin
          (* one variant per CFG predecessor; the entry block is also
             importable along the synthetic "<entry>" edge *)
          let cfg = dp.Datapath.cfg in
          let idx = Salam_ir.Cfg.index_of_label cfg label in
          let preds =
            List.map (Salam_ir.Cfg.label_of_index cfg) (Salam_ir.Cfg.preds cfg idx)
          in
          let entry = (Ast.entry_block dp.Datapath.func).Ast.label in
          let preds = if label = entry then "<entry>" :: preds else preds in
          Array.of_list (List.map (fun p -> (p, rows_for_pred p)) preds)
        end
      in
      Hashtbl.replace blocks label
        { bs_label = label; bs_size = Array.length nodes; bs_has_phi = has_phi; bs_variants = variants })
    by_block;
  let edge label ~pred = edge_of blocks label ~pred in
  let succs =
    Array.map
      (fun (n : Datapath.node) ->
        match n.Datapath.instr with
        | Ast.Br target -> [| edge target ~pred:n.Datapath.block |]
        | Ast.Cond_br { if_true; if_false; _ } ->
            [| edge if_true ~pred:n.Datapath.block; edge if_false ~pred:n.Datapath.block |]
        | _ -> [||])
      dp.Datapath.nodes
  in
  let entry = (Ast.entry_block dp.Datapath.func).Ast.label in
  { blocks; succs; entry_edge = edge entry ~pred:"<entry>" }

let edge t ~label ~pred = edge_of t.blocks label ~pred

let successors t (n : Datapath.node) = t.succs.(n.Datapath.n_id)

let entry t = t.entry_edge

let edge_size e = e.e_size

let edge_rows e = match e.e_rows with Rows r -> r | Invalid msg -> invalid_arg msg

let edge_phis e = e.e_phis
