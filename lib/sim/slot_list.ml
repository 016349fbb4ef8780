(* Links live in three int arrays indexed by slot. A slot in no list has
   [prev = unlinked]; the head's [prev] and the tail's [next] are [nil]. *)

let nil = -1

let unlinked = -2

type t = {
  mutable next_a : int array;
  mutable prev_a : int array;
  mutable key_a : int array;
  mutable head : int;
  mutable tail : int;
  mutable len : int;
  mutable finger : int;  (** the last [sorted_insert]'s slot *)
}

let create () =
  { next_a = [||]; prev_a = [||]; key_a = [||]; head = nil; tail = nil; len = 0; finger = nil }

let reserve l n =
  let cap = Array.length l.next_a in
  if n > cap then begin
    let cap' = max n (max 16 (2 * cap)) in
    let extend a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    l.next_a <- extend l.next_a nil;
    l.prev_a <- extend l.prev_a unlinked;
    l.key_a <- extend l.key_a 0
  end

let length l = l.len

let is_empty l = l.len = 0

let[@inline] linked l s = l.prev_a.(s) <> unlinked

let[@inline] key l s = l.key_a.(s)

let[@inline] head l = l.head

let[@inline] next l s = l.next_a.(s)

let[@inline] check_unlinked fname l s =
  if linked l s then invalid_arg ("Slot_list." ^ fname ^ ": slot already linked")

let[@inline] push_back l s =
  check_unlinked "push_back" l s;
  l.next_a.(s) <- nil;
  l.prev_a.(s) <- l.tail;
  if l.tail <> nil then l.next_a.(l.tail) <- s else l.head <- s;
  l.tail <- s;
  l.len <- l.len + 1

let push_front l s =
  check_unlinked "push_front" l s;
  l.prev_a.(s) <- nil;
  l.next_a.(s) <- l.head;
  if l.head <> nil then l.prev_a.(l.head) <- s else l.tail <- s;
  l.head <- s;
  l.len <- l.len + 1

let[@inline] insert_after l ~anchor s =
  check_unlinked "insert_after" l s;
  if not (linked l anchor) then invalid_arg "Slot_list.insert_after: anchor not linked";
  let nx = l.next_a.(anchor) in
  l.prev_a.(s) <- anchor;
  l.next_a.(s) <- nx;
  if nx <> nil then l.prev_a.(nx) <- s else l.tail <- s;
  l.next_a.(anchor) <- s;
  l.len <- l.len + 1

let[@inline] remove l s =
  if not (linked l s) then invalid_arg "Slot_list.remove: slot not linked";
  let p = l.prev_a.(s) and nx = l.next_a.(s) in
  if p <> nil then l.next_a.(p) <- nx else l.head <- nx;
  if nx <> nil then l.prev_a.(nx) <- p else l.tail <- p;
  l.prev_a.(s) <- unlinked;
  l.next_a.(s) <- nil;
  l.len <- l.len - 1

(* rightmost slot at or before [s] whose key is below [k] *)
let rec last_before l k s = if s = nil || l.key_a.(s) < k then s else last_before l k l.prev_a.(s)

(* from [s], forward past every successor whose key is below [k] *)
let rec advance_before l k s =
  let nx = l.next_a.(s) in
  if nx <> nil && l.key_a.(nx) < k then advance_before l k nx else s

let sorted_insert l ~key s =
  l.key_a.(s) <- key;
  let start = if l.finger <> nil && linked l l.finger then l.finger else l.tail in
  let a = last_before l key start in
  if a = nil then push_front l s else insert_after l ~anchor:(advance_before l key a) s;
  l.finger <- s

let rewind l ~cursor s = if cursor = nil || l.key_a.(s) < l.key_a.(cursor) then s else cursor

let to_list l =
  let rec go acc s = if s = nil then List.rev acc else go (s :: acc) l.next_a.(s) in
  go [] l.head
