type t = {
  blocks : Ast.block array;
  index : (string, int) Hashtbl.t;
  succs : int list array;
  preds : int list array;
  rpo_number : int array; (* -1 for unreachable *)
  idom : int array; (* -1 for entry/unreachable *)
  frontier : int list array;
}

let block_count t = Array.length t.blocks

let index_of_label t label =
  match Hashtbl.find_opt t.index label with
  | Some i -> i
  | None -> invalid_arg ("Cfg: unknown label " ^ label)

let label_of_index t i = t.blocks.(i).Ast.label

let block t i = t.blocks.(i)

let succs t i = t.succs.(i)

let preds t i = t.preds.(i)

let reachable t i = t.rpo_number.(i) >= 0

let idom t i = if t.idom.(i) < 0 then None else Some t.idom.(i)

let dominance_frontier t i = t.frontier.(i)

let compute_rpo n succs =
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs succs.(i);
      order := i :: !order
    end
  in
  if n > 0 then dfs 0;
  !order

(* Cooper, Harvey & Kennedy: "A Simple, Fast Dominance Algorithm". *)
let compute_idom n preds rpo rpo_number =
  let idom = Array.make n (-1) in
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_number.(!f1) > rpo_number.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_number.(!f2) > rpo_number.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  if n > 0 then begin
    idom.(0) <- 0;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          if b <> 0 then begin
            let processed =
              List.filter (fun p -> rpo_number.(p) >= 0 && idom.(p) >= 0) preds.(b)
            in
            match processed with
            | [] -> ()
            | first :: rest ->
                let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
                if idom.(b) <> new_idom then begin
                  idom.(b) <- new_idom;
                  changed := true
                end
          end)
        rpo
    done;
    idom.(0) <- -1
  end;
  idom

let compute_frontier n preds idom rpo_number =
  let frontier = Array.make n [] in
  for b = 0 to n - 1 do
    if rpo_number.(b) >= 0 then begin
      let ps = List.filter (fun p -> rpo_number.(p) >= 0) preds.(b) in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            let stop = if b = 0 then -1 else idom.(b) in
            while !runner <> stop && !runner >= 0 do
              if not (List.mem b frontier.(!runner)) then
                frontier.(!runner) <- b :: frontier.(!runner);
              runner := if !runner = 0 then -1 else idom.(!runner)
            done)
          ps
    end
  done;
  frontier

let build (f : Ast.func) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.replace index b.Ast.label i) blocks;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  Array.iteri
    (fun i b ->
      match List.rev b.Ast.instrs with
      | [] -> ()
      | terminator :: _ ->
          let ss =
            List.map
              (fun l ->
                match Hashtbl.find_opt index l with
                | Some j -> j
                | None -> invalid_arg ("Cfg: branch to unknown label " ^ l))
              (Ast.successors terminator)
          in
          succs.(i) <- ss;
          List.iter (fun j -> preds.(j) <- i :: preds.(j)) ss)
    blocks;
  Array.iteri (fun j ps -> preds.(j) <- List.rev ps) preds;
  let rpo = compute_rpo n succs in
  let rpo_number = Array.make n (-1) in
  List.iteri (fun ord i -> rpo_number.(i) <- ord) rpo;
  let idom = compute_idom n preds rpo rpo_number in
  let frontier = compute_frontier n preds idom rpo_number in
  { blocks; index; succs; preds; rpo_number; idom; frontier }

let dominates t a b =
  if a = b then true
  else begin
    let rec walk i = if i < 0 then false else if i = a then true else walk t.idom.(i) in
    reachable t a && reachable t b && walk t.idom.(b)
  end

let back_edges t =
  let edges = ref [] in
  Array.iteri
    (fun src ss ->
      if reachable t src then
        List.iter (fun dst -> if dominates t dst src then edges := (src, dst) :: !edges) ss)
    t.succs;
  List.rev !edges
