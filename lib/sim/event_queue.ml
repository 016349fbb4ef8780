type event = {
  tick : int;
  priority : int;
  seq : int;
  action : unit -> unit;
}

type t = {
  mutable heap : event array;
  (* [heap.(0)] is unused padding once empty; elements live in [0, size). *)
  mutable size : int;
  mutable next_seq : int;
  mutable now : int;
}

let dummy = { tick = 0; priority = 0; seq = 0; action = ignore }

let create () = { heap = Array.make 64 dummy; size = 0; next_seq = 0; now = 0 }

let before a b =
  if a.tick <> b.tick then a.tick < b.tick
  else if a.priority <> b.priority then a.priority < b.priority
  else a.seq < b.seq

let swap h i j =
  let tmp = h.(i) in
  h.(i) <- h.(j);
  h.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h.(i) h.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < size && before h.(l) h.(i) then l else i in
  let smallest = if r < size && before h.(r) h.(smallest) then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h size smallest
  end

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let schedule t ~tick ?(priority = 0) action =
  if tick < t.now then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: tick %d is before now %d" tick t.now);
  if t.size = Array.length t.heap then grow t;
  let ev = { tick; priority; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let ev = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- dummy;
    sift_down t.heap t.size 0;
    t.now <- ev.tick;
    Some ev
  end

let peek_tick t = if t.size = 0 then None else Some t.heap.(0).tick

(* allocation-free peek for the kernel's run loop *)
let next_tick t = if t.size = 0 then max_int else t.heap.(0).tick

let is_empty t = t.size = 0

let size t = t.size

let last_popped_tick t = t.now
