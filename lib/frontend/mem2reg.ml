open Salam_ir
open Ast

(* A slot is promotable when the alloca result is used only as the
   address operand of loads and stores (never as a stored value, gep
   base, or call argument). *)
let promotable_slots (f : func) =
  let allocas = Hashtbl.create 16 in
  iter_instrs f (fun _ instr ->
      match instr with
      | Alloca { dst; elem_ty; count = 1 } -> Hashtbl.replace allocas dst.id elem_ty
      | _ -> ());
  let disqualify id = Hashtbl.remove allocas id in
  iter_instrs f (fun _ instr ->
      match instr with
      | Load { addr = Var _; _ } -> ()
      | Store { addr = Var a; src } -> (
          match src with Var s when s.id <> a.id -> () | Var s -> disqualify s.id | Const _ -> ())
      | Alloca _ -> ()
      | _ -> List.iter (fun (v : var) -> disqualify v.id) (used_vars instr));
  (* store srcs that are allocas disqualify; loads/stores with non-var
     addresses never mention allocas *)
  iter_instrs f (fun _ instr ->
      match instr with
      | Store { src = Var s; _ } -> if Hashtbl.mem allocas s.id then disqualify s.id
      | _ -> ());
  allocas

let max_var_id (f : func) =
  let m = ref 0 in
  List.iter (fun (p : var) -> if p.id > !m then m := p.id) f.params;
  iter_instrs f (fun _ instr ->
      (match defined_var instr with Some v -> if v.id > !m then m := v.id | None -> ());
      List.iter (fun (v : var) -> if v.id > !m then m := v.id) (used_vars instr));
  !m

let run (f : func) =
  let slots = promotable_slots f in
  if Hashtbl.length slots = 0 then 0
  else begin
    let cfg = Cfg.build f in
    let nblocks = Cfg.block_count cfg in
    let next_id = ref (max_var_id f + 1) in
    let fresh name ty =
      let id = !next_id in
      incr next_id;
      { id; vname = name; ty }
    in
    (* Map alloca id -> blocks containing stores to it. *)
    let store_blocks = Hashtbl.create 16 in
    List.iteri
      (fun bi b ->
        List.iter
          (fun instr ->
            match instr with
            | Store { addr = Var a; _ } when Hashtbl.mem slots a.id ->
                let existing =
                  Option.value ~default:[] (Hashtbl.find_opt store_blocks a.id)
                in
                if not (List.mem bi existing) then
                  Hashtbl.replace store_blocks a.id (bi :: existing)
            | _ -> ())
          b.instrs)
      f.blocks;
    (* Phi placement on the iterated dominance frontier. phi_sites maps
       (block, alloca) -> phi destination var. *)
    let phi_sites : (int * int, var) Hashtbl.t = Hashtbl.create 32 in
    let phi_incoming : (int * int, (value * string) list ref) Hashtbl.t = Hashtbl.create 32 in
    let names = Hashtbl.create 16 in
    iter_instrs f (fun _ instr ->
        match instr with
        | Alloca { dst; _ } when Hashtbl.mem slots dst.id -> Hashtbl.replace names dst.id dst.vname
        | _ -> ());
    Hashtbl.iter
      (fun alloca_id elem_ty ->
        let name = Option.value ~default:"slot" (Hashtbl.find_opt names alloca_id) in
        let worklist = Queue.create () in
        List.iter
          (fun bi -> Queue.add bi worklist)
          (Option.value ~default:[] (Hashtbl.find_opt store_blocks alloca_id));
        let placed = Array.make nblocks false in
        let enqueued = Array.make nblocks false in
        while not (Queue.is_empty worklist) do
          let bi = Queue.pop worklist in
          List.iter
            (fun df ->
              if (not placed.(df)) && Cfg.reachable cfg df then begin
                placed.(df) <- true;
                Hashtbl.replace phi_sites (df, alloca_id) (fresh name elem_ty);
                Hashtbl.replace phi_incoming (df, alloca_id) (ref []);
                if not enqueued.(df) then begin
                  enqueued.(df) <- true;
                  Queue.add df worklist
                end
              end)
            (Cfg.dominance_frontier cfg bi)
        done)
      slots;
    (* the phi sites of each block, as (alloca, phi destination) *)
    let block_sites = Array.make nblocks [] in
    Hashtbl.iter
      (fun (bi, alloca_id) dst -> block_sites.(bi) <- (alloca_id, dst) :: block_sites.(bi))
      phi_sites;
    (* Renaming. [rewrites] maps a deleted load's dst to its replacement
       value; replacements always dominate the load, so applying the map
       globally is sound. *)
    let rewrites = Subst.create () in
    let resolve v = Subst.resolve rewrites v in
    let stacks : (int, value list ref) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter (fun id _ -> Hashtbl.replace stacks id (ref [])) slots;
    let top alloca_id =
      let stack = Hashtbl.find stacks alloca_id in
      match !stack with
      | v :: _ -> resolve v
      | [] ->
          let elem_ty = Hashtbl.find slots alloca_id in
          if Ty.is_float elem_ty then Const (Cfloat (elem_ty, 0.0))
          else Const (Cint (elem_ty, 0L))
    in
    (* children in the dominator tree *)
    let dom_children = Array.make nblocks [] in
    for bi = 0 to nblocks - 1 do
      match Cfg.idom cfg bi with
      | Some p -> dom_children.(p) <- bi :: dom_children.(p)
      | None -> ()
    done;
    let rec rename bi =
      let b = Cfg.block cfg bi in
      let pushed = ref [] in
      let push alloca_id v =
        let stack = Hashtbl.find stacks alloca_id in
        stack := v :: !stack;
        pushed := alloca_id :: !pushed
      in
      (* phis for this block count as definitions *)
      List.iter (fun (alloca_id, dst) -> push alloca_id (Var dst)) block_sites.(bi);
      let new_instrs =
        List.filter_map
          (fun instr ->
            match instr with
            | Alloca { dst; _ } when Hashtbl.mem slots dst.id -> None
            | Load { dst; addr = Var a } when Hashtbl.mem slots a.id ->
                Subst.add rewrites dst (top a.id);
                None
            | Store { addr = Var a; src } when Hashtbl.mem slots a.id ->
                push a.id (resolve src);
                None
            | _ -> Some instr)
          b.instrs
      in
      b.instrs <- new_instrs;
      (* feed phi inputs of CFG successors *)
      List.iter
        (fun succ ->
          List.iter
            (fun (alloca_id, _) ->
              let inc = Hashtbl.find phi_incoming (succ, alloca_id) in
              inc := (top alloca_id, b.label) :: !inc)
            block_sites.(succ))
        (Cfg.succs cfg bi);
      List.iter rename dom_children.(bi);
      List.iter
        (fun alloca_id ->
          let stack = Hashtbl.find stacks alloca_id in
          match !stack with
          | _ :: rest -> stack := rest
          | [] -> assert false)
        !pushed
    in
    if nblocks > 0 then rename 0;
    (* Materialise phis at block heads and apply the rewrite map. A
       block's phis come in the reverse of [phi_sites]' iteration order. *)
    let phis = Array.make nblocks [] in
    Hashtbl.iter
      (fun (bi, alloca_id) dst ->
        let incoming = !(Hashtbl.find phi_incoming (bi, alloca_id)) in
        let incoming = List.map (fun (v, l) -> (resolve v, l)) incoming in
        phis.(bi) <- Phi { dst; incoming = List.rev incoming } :: phis.(bi))
      phi_sites;
    List.iteri (fun bi b -> b.instrs <- phis.(bi) @ b.instrs) f.blocks;
    Subst.apply rewrites f;
    Hashtbl.length slots
  end
