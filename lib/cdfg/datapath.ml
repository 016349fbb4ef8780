open Salam_ir
open Salam_hw

type node = {
  n_id : int;
  instr : Ast.instr;
  block : string;
  fu : Fu.cls option;
  latency : int;
}

type t = {
  func : Ast.func;
  cfg : Cfg.t;
  profile : Profile.t;
  nodes : node array;
  fu_alloc : int Fu.Map.t;
  register_bits : int;
}

let fu_demand_of_func (f : Ast.func) =
  let demand = ref Fu.Map.empty in
  Ast.iter_instrs f (fun _ instr ->
      match Fu.of_instr instr with
      | Some cls ->
          let count = Option.value ~default:0 (Fu.Map.find_opt cls !demand) in
          demand := Fu.Map.add cls (count + 1) !demand
      | None -> ());
  !demand

let build ?(profile = Profile.default_40nm) ?(limits = []) (f : Ast.func) =
  let cfg = Cfg.build f in
  let nodes = ref [] in
  let next = ref 0 in
  List.iter
    (fun (b : Ast.block) ->
      List.iter
        (fun instr ->
          let n =
            {
              n_id = !next;
              instr;
              block = b.label;
              fu = Fu.of_instr instr;
              latency = Profile.instr_latency profile instr;
            }
          in
          incr next;
          nodes := n :: !nodes)
        b.instrs)
    f.blocks;
  let demand = fu_demand_of_func f in
  let fu_alloc =
    Fu.Map.mapi
      (fun cls count ->
        match List.assoc_opt cls limits with
        | Some limit when limit > 0 -> min limit count
        | Some _ | None -> count)
      demand
  in
  let register_bits =
    let bits = ref 0 in
    List.iter (fun (p : Ast.var) -> bits := !bits + Ty.bits p.ty) f.params;
    Ast.iter_instrs f (fun _ instr ->
        match Ast.defined_var instr with
        | Some v -> bits := !bits + Ty.bits v.ty
        | None -> ());
    !bits
  in
  { func = f; cfg; profile; nodes = Array.of_list (List.rev !nodes); fu_alloc; register_bits }

let nodes_of_block t label =
  Array.to_list (Array.of_seq (Seq.filter (fun n -> n.block = label) (Array.to_seq t.nodes)))

let fu_demand t = fu_demand_of_func t.func

let fu_count t cls = Option.value ~default:0 (Fu.Map.find_opt cls t.fu_alloc)

let static_area_um2 t =
  let fu_area =
    Fu.Map.fold
      (fun cls count acc -> acc +. (float_of_int count *. (Profile.spec t.profile cls).area_um2))
      t.fu_alloc 0.0
  in
  fu_area +. (float_of_int t.register_bits *. t.profile.reg_area_um2_per_bit)

let fu_leakage_mw t =
  Fu.Map.fold
    (fun cls count acc -> acc +. (float_of_int count *. (Profile.spec t.profile cls).leakage_mw))
    t.fu_alloc 0.0

let reg_leakage_mw t = float_of_int t.register_bits *. t.profile.reg_leak_mw_per_bit

let static_leakage_mw t = fu_leakage_mw t +. reg_leakage_mw t

let pp_summary ppf t =
  Format.fprintf ppf "datapath %s: %d instructions, %d register bits@." t.func.fname
    (Array.length t.nodes) t.register_bits;
  Fu.Map.iter
    (fun cls count -> Format.fprintf ppf "  %-16s %d@." (Fu.to_string cls) count)
    t.fu_alloc;
  Format.fprintf ppf "  area %.0f um^2, leakage %.3f mW@." (static_area_um2 t)
    (static_leakage_mw t)
