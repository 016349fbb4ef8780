(* A scalar is an all-float record, which OCaml stores flat, so an
   update writes the float in place and allocates nothing, with no
   load but the scalar itself. A [mutable v : float] in a mixed record
   would box a fresh float on every [incr], and so would a
   [float ref]: ['a ref] is a polymorphic record, never a flat float
   one. The name lives with the group, which only [fold] reads. *)
type scalar = { mutable f : float }

(* Registration lists are kept newest-first so [group]/[scalar] are
   O(1); iteration points reverse them back to registration order. *)
type group = {
  g_name : string;
  mutable scalars : (string * scalar) list;
  mutable children : group list;
}

let group ?parent name =
  let g = { g_name = name; scalars = []; children = [] } in
  (match parent with Some p -> p.children <- g :: p.children | None -> ());
  g

let scalar g name =
  let s = { f = 0.0 } in
  g.scalars <- (name, s) :: g.scalars;
  s

let incr s = s.f <- s.f +. 1.0

let add s x = s.f <- s.f +. x

let value s = s.f

let fold g ~init ~f =
  let rec go acc prefix g =
    let scoped name = if prefix = "" then name else prefix ^ "." ^ name in
    let acc =
      List.fold_left
        (fun acc (name, s) -> f acc ~path:(scoped name) s.f)
        acc (List.rev g.scalars)
    in
    List.fold_left
      (fun acc child -> go acc (scoped child.g_name) child)
      acc (List.rev g.children)
  in
  go init "" g
