(* [self] is the node's own [Some n], built once with the node: every
   link a push, insert or remove writes is an existing option, so the
   list operations allocate nothing. *)
type 'a node = {
  v : 'a;
  mutable prev_n : 'a node option;
  mutable next_n : 'a node option;
  mutable is_linked : bool;
  self : 'a node option;
}

type 'a t = {
  mutable head_n : 'a node option;
  mutable tail_n : 'a node option;
  mutable len : int;
}

let create () = { head_n = None; tail_n = None; len = 0 }

let node v =
  let rec n = { v; prev_n = None; next_n = None; is_linked = false; self = Some n } in
  n

let some n = n.self

let value n = n.v

let linked n = n.is_linked

let length t = t.len

let is_empty t = t.len = 0

let check_unlinked fname n =
  if n.is_linked then invalid_arg ("Ilist." ^ fname ^ ": node already linked")

let push_back t n =
  check_unlinked "push_back" n;
  n.is_linked <- true;
  n.next_n <- None;
  n.prev_n <- t.tail_n;
  (match t.tail_n with
  | Some tl -> tl.next_n <- n.self
  | None -> t.head_n <- n.self);
  t.tail_n <- n.self;
  t.len <- t.len + 1

let push_front t n =
  check_unlinked "push_front" n;
  n.is_linked <- true;
  n.prev_n <- None;
  n.next_n <- t.head_n;
  (match t.head_n with
  | Some hd -> hd.prev_n <- n.self
  | None -> t.tail_n <- n.self);
  t.head_n <- n.self;
  t.len <- t.len + 1

let insert_after t ~anchor n =
  check_unlinked "insert_after" n;
  if not anchor.is_linked then invalid_arg "Ilist.insert_after: anchor not linked";
  n.is_linked <- true;
  n.prev_n <- anchor.self;
  n.next_n <- anchor.next_n;
  (match anchor.next_n with
  | Some nx -> nx.prev_n <- n.self
  | None -> t.tail_n <- n.self);
  anchor.next_n <- n.self;
  t.len <- t.len + 1

let remove t n =
  if not n.is_linked then invalid_arg "Ilist.remove: node not linked";
  (match n.prev_n with
  | Some p -> p.next_n <- n.next_n
  | None -> t.head_n <- n.next_n);
  (match n.next_n with
  | Some nx -> nx.prev_n <- n.prev_n
  | None -> t.tail_n <- n.prev_n);
  n.prev_n <- None;
  n.next_n <- None;
  n.is_linked <- false;
  t.len <- t.len - 1

let head t = t.head_n

let tail t = t.tail_n

let next n = n.next_n

let prev n = n.prev_n

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        let nx = n.next_n in
        f n.v;
        go nx
  in
  go t.head_n

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc
