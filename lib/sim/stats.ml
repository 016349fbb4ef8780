(* The value lives in its own all-float record, which OCaml stores
   flat, so an update writes the float in place and allocates nothing.
   A [mutable v : float] directly in this mixed record would box a
   fresh float on every [incr], and so would a [float ref]: ['a ref] is
   a polymorphic record, never a flat float one. *)
type cell = { mutable f : float }

type scalar = { s_name : string; v : cell }

type distribution = {
  d_name : string;
  mutable count : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

(* Registration lists are kept newest-first so [group]/[scalar]/
   [distribution] are O(1); iteration points reverse them back to
   registration order. *)
type group = {
  g_name : string;
  mutable scalars : scalar list;
  mutable dists : distribution list;
  mutable children : group list;
}

let group ?parent name =
  let g = { g_name = name; scalars = []; dists = []; children = [] } in
  (match parent with Some p -> p.children <- g :: p.children | None -> ());
  g

let scalar g name =
  let s = { s_name = name; v = { f = 0.0 } } in
  g.scalars <- s :: g.scalars;
  s

let incr s = s.v.f <- s.v.f +. 1.0

let add s x = s.v.f <- s.v.f +. x

let set s x = s.v.f <- x

let value s = s.v.f

let distribution g name =
  let d = { d_name = name; count = 0; total = 0.0; min_v = infinity; max_v = neg_infinity } in
  g.dists <- d :: g.dists;
  d

let sample d x =
  d.count <- d.count + 1;
  d.total <- d.total +. x;
  if x < d.min_v then d.min_v <- x;
  if x > d.max_v then d.max_v <- x

let dist_count d = d.count

let dist_mean d = if d.count = 0 then 0.0 else d.total /. float_of_int d.count

let dist_max d = if d.count = 0 then 0.0 else d.max_v

let dist_min d = if d.count = 0 then 0.0 else d.min_v

let dist_total d = d.total

let rec reset_group g =
  List.iter (fun s -> s.v.f <- 0.0) g.scalars;
  List.iter
    (fun d ->
      d.count <- 0;
      d.total <- 0.0;
      d.min_v <- infinity;
      d.max_v <- neg_infinity)
    g.dists;
  List.iter reset_group g.children

(* One path scheme everywhere: paths are relative to the group being
   queried, so every path [fold]/[pp] emit resolves through [find]. *)
let dist_fields d =
  [
    ("count", float_of_int d.count);
    ("total", d.total);
    ("mean", dist_mean d);
    ("min", dist_min d);
    ("max", dist_max d);
  ]

let fold g ~init ~f =
  let rec go acc prefix g =
    let scoped name = if prefix = "" then name else prefix ^ "." ^ name in
    let acc =
      List.fold_left
        (fun acc s -> f acc ~path:(scoped s.s_name) s.v.f)
        acc (List.rev g.scalars)
    in
    let acc =
      List.fold_left
        (fun acc d ->
          List.fold_left
            (fun acc (field, v) -> f acc ~path:(scoped (d.d_name ^ "." ^ field)) v)
            acc (dist_fields d))
        acc (List.rev g.dists)
    in
    List.fold_left
      (fun acc child -> go acc (scoped child.g_name) child)
      acc (List.rev g.children)
  in
  go init "" g

let find g path =
  let parts = String.split_on_char '.' path in
  let rec go g = function
    | [] -> None
    | [ last ] ->
        List.find_opt (fun s -> s.s_name = last) g.scalars |> Option.map (fun s -> s.v.f)
    | child :: rest -> (
        match List.find_opt (fun c -> c.g_name = child) g.children with
        | Some c -> go c rest
        | None -> (
            match rest with
            | [ field ] ->
                List.find_opt (fun d -> d.d_name = child) g.dists
                |> Option.map dist_fields
                |> Option.map (List.assoc_opt field)
                |> Option.join
            | _ -> None))
  in
  go g parts

let pp ppf g =
  let rec go prefix g =
    let scoped name = if prefix = "" then name else prefix ^ "." ^ name in
    List.iter
      (fun s -> Format.fprintf ppf "%s = %g@." (scoped s.s_name) s.v.f)
      (List.rev g.scalars);
    List.iter
      (fun d ->
        Format.fprintf ppf "%s: count=%d mean=%g min=%g max=%g@." (scoped d.d_name) d.count
          (dist_mean d) (dist_min d) (dist_max d))
      (List.rev g.dists);
    List.iter (fun c -> go (scoped c.g_name) c) (List.rev g.children)
  in
  go "" g
