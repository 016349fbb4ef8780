(* Schedule specialization pre-pass.

   The dynamic engine re-derives the same import decisions for every
   dynamic instance of a block: operand constants are re-truncated, phi
   incomings are re-searched per predecessor, reader registration
   re-matches operand variants. This pass runs once per datapath and
   compiles every (block, predecessor) pair into a dense array of [row]s
   — branch-free replay templates the engine's compiled import path walks
   directly.

   The pass also partitions each block into *regions*: maximal runs of
   operations whose issue order is provably independent of runtime data.
   A region is broken by exactly the operations whose timing the engine
   cannot know statically — loads and stores (variable-latency memory
   responses, disambiguation against in-flight addresses), conditional
   branches (data-dependent control) and returns. Everything else —
   integer/FP compute, GEP address arithmetic, phis, unconditional
   branches, intrinsic calls with profiled latency — stays inside a
   region. The partition is reported, not executed: the engine's
   compiled scan issues every row, inside a region or on a boundary,
   through the same checks, and regions only feed the [engine.compile]
   trace summary. *)

open Salam_ir
module Datapath = Salam_cdfg.Datapath
module Trace = Salam_obs.Trace

type plan =
  | Pimm of int64
      (** constant operand: its payload, already truncated to its type *)
  | Preg of { var : Ast.var; read_pj : float }
      (** register operand; [read_pj] is the register-file read energy
          charged when the value is captured from a committed writer *)

type kind = Kcompute | Kload | Kstore

type row = {
  r_node : Datapath.node;
  r_plans : plan array;
  r_def : Ast.var option;
  r_kind : kind;
  r_readers : Ast.var array;
      (** non-parameter register operands in source order (duplicates
          kept) — the WAR reader registrations this instance performs *)
  r_region : int;  (** region ordinal within the block; -1 on boundaries *)
}

type variant =
  | Rows of row array
  | Missing_phi of string
      (** importing along this predecessor is malformed; the payload is
          the exact error the dynamic path would raise *)

type region = { rg_start : int; rg_len : int; rg_boundary : string }

type block_schedule = {
  bs_label : string;
  bs_size : int;  (** rows per variant — the reservation-room requirement *)
  bs_has_phi : bool;
  bs_variants : (string * variant) array;
      (** keyed by predecessor label; a single [("*", v)] entry when the
          block has no phis and compiles identically for every pred *)
  bs_regions : region array;
  mutable bs_last : (string * variant) option;
      (** memo of the last [rows] lookup — loop back-edges re-import the
          same (block, pred) pair thousands of times in a row *)
}

type t = {
  sc_blocks : (string, block_schedule) Hashtbl.t;
  sc_block_order : string array;  (** program order, for deterministic emission *)
  sc_regions : int;
  sc_region_ops : int;
  sc_max_region_ops : int;
  sc_boundaries : (string * int) list;  (** reason -> count, fixed order *)
}

let boundary_reason (i : Ast.instr) =
  match i with
  | Ast.Load _ -> Some "load"
  | Ast.Store _ -> Some "store"
  | Ast.Cond_br _ -> Some "cond_br"
  | Ast.Ret _ -> Some "ret"
  | _ -> None

let plan_of_value ~read_pj_per_bit (v : Ast.value) =
  match v with
  | Ast.Const (Ast.Cint (ty, x)) -> Pimm (Bits.payload (Bits.truncate ty (Bits.Int x)))
  | Ast.Const (Ast.Cfloat (ty, x)) -> Pimm (Bits.payload (Bits.truncate ty (Bits.Float x)))
  | Ast.Const Ast.Cnull -> Pimm 0L
  | Ast.Var var ->
      Preg { var; read_pj = float_of_int (Ty.bits var.ty) *. read_pj_per_bit }

let compile (dp : Datapath.t) =
  let profile = dp.Datapath.profile in
  let read_pj_per_bit = profile.Salam_hw.Profile.reg_read_pj_per_bit in
  let is_param =
    let m = Hashtbl.create 8 in
    List.iter (fun (p : Ast.var) -> Hashtbl.replace m p.Ast.id ()) dp.Datapath.func.Ast.params;
    fun (v : Ast.var) -> Hashtbl.mem m v.Ast.id
  in
  (* group nodes per block, preserving program order *)
  let block_order = ref [] in
  let by_block = Hashtbl.create 16 in
  Array.iter
    (fun (n : Datapath.node) ->
      match Hashtbl.find_opt by_block n.Datapath.block with
      | Some ns -> Hashtbl.replace by_block n.Datapath.block (n :: ns)
      | None ->
          block_order := n.Datapath.block :: !block_order;
          Hashtbl.replace by_block n.Datapath.block [ n ])
    dp.Datapath.nodes;
  let block_order = Array.of_list (List.rev !block_order) in
  let total_regions = ref 0 in
  let total_region_ops = ref 0 in
  let max_region_ops = ref 0 in
  let boundary_counts = Hashtbl.create 4 in
  let count_boundary reason =
    Hashtbl.replace boundary_counts reason
      (1 + Option.value ~default:0 (Hashtbl.find_opt boundary_counts reason))
  in
  let blocks = Hashtbl.create 16 in
  Array.iter
    (fun label ->
      let nodes = Array.of_list (List.rev (Hashtbl.find by_block label)) in
      (* region partition: assign each node its region ordinal *)
      let region_of = Array.make (Array.length nodes) (-1) in
      let regions = ref [] in
      let run_start = ref 0 in
      let next_region = ref 0 in
      let close_run stop reason =
        if stop > !run_start then begin
          regions := { rg_start = !run_start; rg_len = stop - !run_start; rg_boundary = reason } :: !regions;
          for i = !run_start to stop - 1 do
            region_of.(i) <- !next_region
          done;
          incr next_region;
          incr total_regions;
          total_region_ops := !total_region_ops + (stop - !run_start);
          if stop - !run_start > !max_region_ops then max_region_ops := stop - !run_start
        end
      in
      Array.iteri
        (fun i (n : Datapath.node) ->
          match boundary_reason n.Datapath.instr with
          | Some reason ->
              close_run i reason;
              count_boundary reason;
              run_start := i + 1
          | None -> ())
        nodes;
      close_run (Array.length nodes) "end";
      let regions = Array.of_list (List.rev !regions) in
      (* row template shared by every variant; phi rows are filled per pred.
         [i] is the node's index within the block, for the region lookup. *)
      let mk_row i (n : Datapath.node) (sources : Ast.value array) =
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
          r_kind =
            (match instr with
            | Ast.Load _ -> Kload
            | Ast.Store _ -> Kstore
            | _ -> Kcompute);
          r_readers = readers;
          r_region = region_of.(i);
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
          Array.mapi
            (fun i (n : Datapath.node) ->
              match n.Datapath.instr with
              | Ast.Phi { incoming; _ } -> (
                  match List.find_opt (fun (_, l) -> l = pred) incoming with
                  | Some (v, _) -> mk_row i n [| v |]
                  | None ->
                      if !missing = None then
                        missing :=
                          Some
                            (Printf.sprintf "Engine: phi in %s lacks incoming for %s" label pred);
                      mk_row i n [||])
              | instr -> mk_row i n (Array.of_list (Ast.used_values instr)))
            nodes
        in
        match !missing with Some msg -> Missing_phi msg | None -> Rows rows
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
        {
          bs_label = label;
          bs_size = Array.length nodes;
          bs_has_phi = has_phi;
          bs_variants = variants;
          bs_regions = regions;
          bs_last = None;
        })
    block_order;
  let boundaries =
    List.filter_map
      (fun reason ->
        match Hashtbl.find_opt boundary_counts reason with
        | Some n -> Some (reason, n)
        | None -> None)
      [ "load"; "store"; "cond_br"; "ret" ]
  in
  {
    sc_blocks = blocks;
    sc_block_order = block_order;
    sc_regions = !total_regions;
    sc_region_ops = !total_region_ops;
    sc_max_region_ops = !max_region_ops;
    sc_boundaries = boundaries;
  }

let find t label =
  try Hashtbl.find t.sc_blocks label with Not_found -> invalid_arg ("Engine: unknown block " ^ label)

let block_size bs = bs.bs_size

let rows bs ~pred =
  let variant =
    if not bs.bs_has_phi then snd bs.bs_variants.(0)
    else
      match bs.bs_last with
      | Some (p, v) when p == pred || p = pred -> v
      | _ ->
          let vs = bs.bs_variants in
          let n = Array.length vs in
          let rec find i =
            if i >= n then
              (* not a CFG edge: the dynamic path's per-phi search would miss *)
              Missing_phi
                (Printf.sprintf "Engine: phi in %s lacks incoming for %s" bs.bs_label pred)
            else
              let p, v = vs.(i) in
              if p = pred then v else find (i + 1)
          in
          let v = find 0 in
          bs.bs_last <- Some (pred, v);
          v
  in
  match variant with Rows r -> r | Missing_phi msg -> invalid_arg msg

let regions t label = (find t label).bs_regions

let blocks t = Array.to_list t.sc_block_order

let region_count t = t.sc_regions

let region_ops t = t.sc_region_ops

let max_region_ops t = t.sc_max_region_ops

let boundary_counts t = t.sc_boundaries

(* One [engine.compile] event per region plus a per-pass summary; emitted
   at engine construction when a sink opts in to the category. *)
let emit_trace t sink ~tick ~comp =
  if Trace.wants sink Trace.Engine_compile then begin
    Array.iter
      (fun label ->
        let bs = Hashtbl.find t.sc_blocks label in
        Array.iteri
          (fun i r ->
            Trace.emit sink ~tick ~comp ~cat:Trace.Engine_compile ~detail:"region"
              [
                ("block", Trace.S label);
                ("idx", Trace.I (Int64.of_int i));
                ("start", Trace.I (Int64.of_int r.rg_start));
                ("ops", Trace.I (Int64.of_int r.rg_len));
                ("boundary", Trace.S r.rg_boundary);
              ])
          bs.bs_regions)
      t.sc_block_order;
    Trace.emit sink ~tick ~comp ~cat:Trace.Engine_compile ~detail:"summary"
      ([
         ("regions", Trace.I (Int64.of_int t.sc_regions));
         ("region_ops", Trace.I (Int64.of_int t.sc_region_ops));
         ("max_region_ops", Trace.I (Int64.of_int t.sc_max_region_ops));
       ]
      @ List.map
          (fun (reason, n) -> ("boundary_" ^ reason, Trace.I (Int64.of_int n)))
          t.sc_boundaries)
  end
