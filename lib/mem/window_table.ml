type 'a t = { mutable base : int array; mutable end_ : int array; mutable target : 'a array }

let create () = { base = [||]; end_ = [||]; target = [||] }

let add ?disjoint t ~base ~size x =
  (match disjoint with
  | Some name ->
      for i = 0 to Array.length t.base - 1 do
        if base < t.end_.(i) && t.base.(i) < base + size then
          invalid_arg
            (Printf.sprintf "%s: range %d+%d overlaps %d+%d" name base size t.base.(i)
               (t.end_.(i) - t.base.(i)))
      done
  | None -> ());
  t.base <- Array.append [| base |] t.base;
  t.end_ <- Array.append [| base + size |] t.end_;
  t.target <- Array.append [| x |] t.target

(* top-level recursion, so a lookup allocates no closure *)
let rec find_from t addr i =
  if i = Array.length t.base then -1
  else if addr >= t.base.(i) && addr < t.end_.(i) then i
  else find_from t addr (i + 1)

let[@inline] find t addr = find_from t addr 0

let[@inline] target t i = t.target.(i)
