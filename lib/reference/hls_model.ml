open Salam_ir
open Salam_hw

type config = {
  profile : Profile.t;
  fu_limits : (Fu.cls * int) list;
  mem_read_latency : int;
  read_ports : int;
  write_ports : int;
}

let default_config =
  {
    profile = Profile.default_40nm;
    fu_limits = [];
    mem_read_latency = 1;
    read_ports = 2;
    write_ports = 1;
  }

let block_counts mem m ~entry ~args =
  let counts = Hashtbl.create 32 in
  let bump label =
    Hashtbl.replace counts label (1 + Option.value ~default:0 (Hashtbl.find_opt counts label))
  in
  let on_exec (ev : Interp.event) =
    match ev.Interp.ev_instr with
    | Ast.Br _ | Ast.Cond_br _ | Ast.Ret _ -> bump ev.Interp.ev_block
    | _ -> ()
  in
  ignore (Interp.run ~on_exec mem m ~entry ~args);
  fun label -> Option.value ~default:0 (Hashtbl.find_opt counts label)

(* effective latency of an instruction in the static schedule *)
let eff_latency cfg instr =
  match instr with
  | Ast.Load _ -> cfg.mem_read_latency + 1
  | Ast.Store _ -> 1
  | _ -> Profile.instr_latency cfg.profile instr

(* ASAP depth of one basic block: registers and a conservative
   store->later-access memory chain *)
let block_depth cfg (b : Ast.block) =
  let finish : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let last_store = ref 0 in
  let depth = ref 1 in
  List.iter
    (fun instr ->
      let ready =
        List.fold_left
          (fun acc (v : Ast.var) ->
            match Hashtbl.find_opt finish v.Ast.id with Some f -> max acc f | None -> acc)
          0 (Ast.used_vars instr)
      in
      let ready =
        match instr with
        | Ast.Load _ | Ast.Store _ -> max ready !last_store
        | _ -> ready
      in
      let f = ready + eff_latency cfg instr in
      (match Ast.defined_var instr with
      | Some d -> Hashtbl.replace finish d.Ast.id f
      | None -> ());
      (match instr with Ast.Store _ -> last_store := max !last_store f | _ -> ());
      if f > !depth then depth := f)
    b.Ast.instrs;
  !depth

type loop = { header : int; latch : int; members : int list }

let natural_loops cfg =
  List.map
    (fun (latch, header) ->
      let members = ref [ header ] in
      let work = Queue.create () in
      if latch <> header then Queue.add latch work;
      while not (Queue.is_empty work) do
        let n = Queue.pop work in
        if not (List.mem n !members) then begin
          members := n :: !members;
          List.iter (fun p -> Queue.add p work) (Cfg.preds cfg n)
        end
      done;
      { header; latch; members = !members })
    (Cfg.back_edges cfg)

(* longest loop-carried dependence chain through the header's phis, in
   cycles: recurrence minimum initiation interval *)
let recurrence_ii cfg_model cfg (l : loop) ~own =
  let member_blocks =
    List.filter_map
      (fun i -> if List.mem i own then Some (Cfg.block cfg i) else None)
      (List.init (Cfg.block_count cfg) Fun.id)
  in
  let latch_label = (Cfg.block cfg l.latch).Ast.label in
  let header_block = Cfg.block cfg l.header in
  let phis =
    List.filter_map
      (fun instr ->
        match instr with
        | Ast.Phi { dst; incoming } -> (
            match List.assoc_opt latch_label (List.map (fun (v, lb) -> (lb, v)) incoming) with
            | Some (Ast.Var carried) -> Some (dst, carried)
            | Some (Ast.Const _) | None -> None)
        | _ -> None)
      header_block.Ast.instrs
  in
  let best = ref 1 in
  List.iter
    (fun ((phi_dst : Ast.var), (carried : Ast.var)) ->
      (* distance from the phi to each def within one iteration *)
      let dist : (int, int) Hashtbl.t = Hashtbl.create 32 in
      Hashtbl.replace dist phi_dst.Ast.id 0;
      List.iter
        (fun (b : Ast.block) ->
          List.iter
            (fun instr ->
              match Ast.defined_var instr with
              | Some d when not (Hashtbl.mem dist d.Ast.id) ->
                  let from_phi =
                    List.fold_left
                      (fun acc (v : Ast.var) ->
                        match Hashtbl.find_opt dist v.Ast.id with
                        | Some dv -> max acc dv
                        | None -> acc)
                      (-1) (Ast.used_vars instr)
                  in
                  if from_phi >= 0 then
                    Hashtbl.replace dist d.Ast.id (from_phi + eff_latency cfg_model instr)
              | _ -> ())
            b.Ast.instrs)
        member_blocks;
      match Hashtbl.find_opt dist carried.Ast.id with
      | Some d when d > !best -> best := d
      | _ -> ())
    phis;
  !best

let ops_by_class (b : Ast.block) =
  List.fold_left
    (fun acc instr ->
      match Fu.of_instr instr with
      | Some cls -> (
          match List.assoc_opt cls acc with
          | Some n -> (cls, n + 1) :: List.remove_assoc cls acc
          | None -> (cls, 1) :: acc)
      | None -> acc)
    [] b.Ast.instrs

let mem_ops (b : Ast.block) =
  List.fold_left
    (fun (l, s) instr ->
      match instr with
      | Ast.Load _ -> (l + 1, s)
      | Ast.Store _ -> (l, s + 1)
      | _ -> (l, s))
    (0, 0) b.Ast.instrs

(* Register write-after-read initiation interval. The runtime engine
   lets a new dynamic instance of a static instruction issue only after
   every older reader of its destination register has issued, so a
   loop's steady-state II is bounded by the distance (in the iteration's
   ASAP schedule) between each definition and its latest in-iteration
   consumer. *)
let war_ii cfg_model cfg (l : loop) ~own =
  ignore l;
  let member_blocks =
    List.filter_map
      (fun i -> if List.mem i own then Some (Cfg.block cfg i) else None)
      (List.init (Cfg.block_count cfg) Fun.id)
  in
  (* def id -> (issue time, latency of the defining instruction) *)
  let defs : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let latest_reader : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ast.block) ->
      List.iter
        (fun instr ->
          let ready =
            List.fold_left
              (fun acc (v : Ast.var) ->
                match Hashtbl.find_opt defs v.Ast.id with
                | Some (t, lat) -> max acc (t + lat)
                | None -> acc)
              0 (Ast.used_vars instr)
          in
          List.iter
            (fun (v : Ast.var) ->
              if Hashtbl.mem defs v.Ast.id then begin
                let prev = Option.value ~default:0 (Hashtbl.find_opt latest_reader v.Ast.id) in
                Hashtbl.replace latest_reader v.Ast.id (max prev ready)
              end)
            (Ast.used_vars instr);
          match Ast.defined_var instr with
          | Some d -> Hashtbl.replace defs d.Ast.id (ready, eff_latency cfg_model instr)
          | None -> ())
        b.Ast.instrs)
    member_blocks;
  Hashtbl.fold
    (fun id (def_t, _) acc ->
      match Hashtbl.find_opt latest_reader id with
      | Some read_t -> max acc (read_t - def_t)
      | None -> acc)
    defs 0

let estimate_cycles ?(config = default_config) (f : Ast.func) ~counts =
  let cfg = Cfg.build f in
  let loops = natural_loops cfg in
  (* innermost loop of each block: the smallest containing member set *)
  let innermost = Array.make (Cfg.block_count cfg) None in
  List.iter
    (fun l ->
      List.iter
        (fun m ->
          match innermost.(m) with
          | Some prev when List.length prev.members <= List.length l.members -> ()
          | _ -> innermost.(m) <- Some l)
        l.members)
    loops;
  let unit_count cls demand =
    match List.assoc_opt cls config.fu_limits with
    | Some limit when limit > 0 -> min limit demand
    | Some _ | None -> demand
  in
  (* static demand per class over the whole function (1:1 default) *)
  let demand =
    List.fold_left
      (fun acc (b : Ast.block) ->
        List.fold_left
          (fun acc (cls, n) ->
            match List.assoc_opt cls acc with
            | Some m -> (cls, m + n) :: List.remove_assoc cls acc
            | None -> (cls, n) :: acc)
          acc (ops_by_class b))
      [] f.Ast.blocks
  in
  let total = ref 0.0 in
  (* loop contributions *)
  List.iter
    (fun l ->
      let latch_label = (Cfg.block cfg l.latch).Ast.label in
      let trips = counts latch_label in
      if trips > 0 then begin
        let header_label = (Cfg.block cfg l.header).Ast.label in
        let invocations = max 1 (counts header_label - trips) in
        let own_blocks =
          List.filter
            (fun m -> match innermost.(m) with Some il -> il == l | None -> false)
            l.members
        in
        (* per-iteration resource and memory pressure: operations per
           iteration summed across the loop's blocks, weighted by how
           often each block actually runs *)
        let weight b = float_of_int (counts b.Ast.label) /. float_of_int trips in
        let res_pressure : (Fu.cls, float) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun m ->
            let b = Cfg.block cfg m in
            List.iter
              (fun (cls, n) ->
                let prev = Option.value ~default:0.0 (Hashtbl.find_opt res_pressure cls) in
                Hashtbl.replace res_pressure cls (prev +. (weight b *. float_of_int n)))
              (ops_by_class b))
          own_blocks;
        let res_ii =
          Hashtbl.fold
            (fun cls ops acc ->
              let units =
                unit_count cls
                  (Option.value ~default:(int_of_float (ceil ops)) (List.assoc_opt cls demand))
              in
              let spec = Profile.spec config.profile cls in
              let per_issue =
                if spec.Profile.pipelined then 1.0 else float_of_int spec.Profile.latency
              in
              max acc (ops *. per_issue /. float_of_int (max 1 units)))
            res_pressure 0.0
        in
        let loads_per_iter, stores_per_iter =
          List.fold_left
            (fun (l_acc, s_acc) m ->
              let b = Cfg.block cfg m in
              let loads, stores = mem_ops b in
              ( l_acc +. (weight b *. float_of_int loads),
                s_acc +. (weight b *. float_of_int stores) ))
            (0.0, 0.0) own_blocks
        in
        let mem_ii =
          max
            (loads_per_iter /. float_of_int config.read_ports)
            (stores_per_iter /. float_of_int config.write_ports)
        in
        let rec_ii = float_of_int (recurrence_ii config cfg l ~own:own_blocks) in
        (* the register write-after-read hazard rule of the runtime
           engine (see war_ii above) *)
        let war = float_of_int (war_ii config cfg l ~own:own_blocks) *. 0.75 in
        (* block-import rolling: each executed block costs a terminator
           resolution and an import step *)
        let control_ii =
          List.fold_left (fun acc m -> acc +. (2.0 *. weight (Cfg.block cfg m))) 0.0 own_blocks
        in
        let ii = List.fold_left max 1.0 [ res_ii; mem_ii; rec_ii; war; control_ii ] in
        (* pipeline fill: the first iteration of each invocation pays
           the part of the body depth the steady-state II hides; later
           iterations overlap it *)
        let body_depth =
          List.fold_left (fun acc m -> max acc (block_depth config (Cfg.block cfg m))) 0 own_blocks
        in
        let drain = max 0.0 (float_of_int body_depth -. ii) in
        total := !total +. (float_of_int trips *. ii) +. (float_of_int invocations *. drain *. 0.5)
      end)
    loops;
  (* straight-line blocks outside any loop *)
  List.iteri
    (fun i (b : Ast.block) ->
      match innermost.(i) with
      | None ->
          let c = counts b.Ast.label in
          if c > 0 then total := !total +. float_of_int (c * block_depth config b)
      | Some _ -> ())
    f.Ast.blocks;
  int_of_float (ceil !total)
