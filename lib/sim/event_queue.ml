type event = { tick : int; seq : int; action : unit -> unit }

(* A binary min-heap on (tick, seq) stored as parallel int arrays; each
   entry names a slot of [actions], where its closure stays put. Sifting
   therefore moves only ints, and scheduling and popping allocate
   nothing and write a pointer once, when the closure is stored. A freed
   slot keeps its last closure until it is reused, so at most the peak
   number of pending events' closures are retained. *)
type t = {
  mutable ticks : int array;
  mutable seqs : int array;
  mutable slots : int array;
  pool : Slot_pool.t;
  mutable actions : (unit -> unit) array;  (** by slot of [pool] *)
  mutable size : int;
  mutable next_seq : int;
  mutable now : int;
}

let no_action () = ()

let initial_capacity = 64

let create () =
  {
    ticks = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    slots = Array.make initial_capacity 0;
    pool = Slot_pool.create ~capacity:initial_capacity ();
    actions = Array.make initial_capacity no_action;
    size = 0;
    next_seq = 0;
    now = 0;
  }

(* the pool grew: the heap holds at most one entry per slot *)
let widen t =
  let p = t.pool in
  t.ticks <- Slot_pool.fit p t.ticks 0;
  t.seqs <- Slot_pool.fit p t.seqs 0;
  t.slots <- Slot_pool.fit p t.slots 0;
  t.actions <- Slot_pool.fit p t.actions no_action

(* Both sifts move a hole instead of swapping: the entry being placed is
   written once, at its final position. *)
let sift_up t i tick seq slot =
  let ticks = t.ticks and seqs = t.seqs and slots = t.slots in
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = ticks.(parent) in
    if tick < pt || (tick = pt && seq < seqs.(parent)) then begin
      ticks.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue_ := false
  done;
  ticks.(!i) <- tick;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let sift_down t tick seq slot =
  let ticks = t.ticks and seqs = t.seqs and slots = t.slots in
  let size = t.size in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= size then continue_ := false
    else begin
      let r = l + 1 in
      let c =
        if r < size && (ticks.(r) < ticks.(l) || (ticks.(r) = ticks.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      let ct = ticks.(c) in
      if ct < tick || (ct = tick && seqs.(c) < seq) then begin
        ticks.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else continue_ := false
    end
  done;
  ticks.(!i) <- tick;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_reserved t ~tick ~seq action =
  if tick < t.now then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: tick %d is before now %d" tick t.now);
  let slot = Slot_pool.take t.pool in
  if slot >= Array.length t.actions then widen t;
  (* the slot freed last is reused first, often for the same closure *)
  if t.actions.(slot) != action then t.actions.(slot) <- action;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) tick seq slot

let schedule t ~tick action = schedule_reserved t ~tick ~seq:(reserve t) action

let pop_action t =
  if t.size = 0 then invalid_arg "Event_queue.pop_action: empty";
  let slot = t.slots.(0) in
  t.now <- t.ticks.(0);
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t t.ticks.(last) t.seqs.(last) t.slots.(last);
  Slot_pool.release t.pool slot;
  t.actions.(slot)

let pop t =
  if t.size = 0 then None
  else begin
    let seq = t.seqs.(0) in
    let action = pop_action t in
    Some { tick = t.now; seq; action }
  end

let next_tick t = if t.size = 0 then max_int else t.ticks.(0)

let next_seq t = if t.size = 0 then max_int else t.seqs.(0)

let is_empty t = t.size = 0

let last_popped_tick t = t.now
