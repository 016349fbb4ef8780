open Salam_sim
module Trace = Salam_obs.Trace

(* The FIFO is a byte ring: [occ] bytes from [head], wrapping at the
   capacity. A push waiting for room holds a copy of its bytes in its
   slot's buffer; a pop waiting for data holds where its bytes go. Both
   wait in arrival order in slot rings, and every table is reused, so a
   push or pop allocates nothing once the tables have grown to the
   peak number waiting (a push, its largest payload). *)
type t = {
  kernel : Kernel.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  buf_name : string;
  capacity_bytes : int;
  ring : Bytes.t;
  mutable head : int;
  mutable occ : int;
  push_slots : Slot_pool.t;
  pushes : Slot_ring.t;  (** waiting push slots, in arrival order *)
  mutable push_data : Bytes.t array;  (** by push slot *)
  mutable push_len : int array;
  mutable push_k : (int -> unit) array;
  mutable push_tag : int array;
  pop_slots : Slot_pool.t;
  pops : Slot_ring.t;  (** waiting pop slots, in arrival order *)
  mutable pop_size : int array;  (** by pop slot *)
  mutable pop_dst : Bytes.t array;
  mutable pop_off : int array;
  mutable pop_k : (int -> unit) array;
  mutable pop_tag : int array;
  done_q : Completion_queue.t;  (** accepted pushes and delivered pops *)
  s_pushes : Stats.scalar;
  s_pops : Stats.scalar;
  s_full_stalls : Stats.scalar;
  s_empty_stalls : Stats.scalar;
}

let create kernel clock stats ~name ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Stream_buffer.create: capacity must be positive";
  let group = Stats.group ~parent:stats name in
  {
    kernel;
    tr = Kernel.trace kernel;
    buf_name = name;
    capacity_bytes;
    ring = Bytes.make capacity_bytes '\000';
    head = 0;
    occ = 0;
    push_slots = Slot_pool.create ~capacity:4 ();
    pushes = Slot_ring.create ~capacity:4 ();
    push_data = [||];
    push_len = [||];
    push_k = [||];
    push_tag = [||];
    pop_slots = Slot_pool.create ~capacity:4 ();
    pops = Slot_ring.create ~capacity:4 ();
    pop_size = [||];
    pop_dst = [||];
    pop_off = [||];
    pop_k = [||];
    pop_tag = [||];
    done_q = Completion_queue.create clock;
    s_pushes = Stats.scalar group "pushes";
    s_pops = Stats.scalar group "pops";
    s_full_stalls = Stats.scalar group "full_stalls";
    s_empty_stalls = Stats.scalar group "empty_stalls";
  }

let occupancy t = t.occ

let emit t cat ~detail ~size =
  match t.tr with
  | Some tr when Trace.wants tr cat ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.buf_name ~cat ~detail
        [ ("size", Trace.I (Int64.of_int size)); ("occ", Trace.I (Int64.of_int t.occ)) ]
  | Some _ | None -> ()

(* copy [len] bytes between the ring, at ring offset [at], and [b] at
   [off], in two pieces where the ring wraps *)
let ring_blit t ~into_ring b off at len =
  let cap = t.capacity_bytes in
  let at = if at >= cap then at - cap else at in
  let first = if len < cap - at then len else cap - at in
  if into_ring then begin
    Bytes.blit b off t.ring at first;
    Bytes.blit b (off + first) t.ring 0 (len - first)
  end
  else begin
    Bytes.blit t.ring at b off first;
    Bytes.blit t.ring 0 b (off + first) (len - first)
  end

(* Move as many waiting pushes and pops as possible; every state change
   can unblock the other side, so iterate to quiescence. The
   completions fall due one cycle on, together. *)
let settle t =
  let progress = ref true in
  while !progress do
    progress := false;
    if not (Slot_ring.is_empty t.pushes) then begin
      let s = Slot_ring.peek_front t.pushes in
      let len = t.push_len.(s) in
      if t.occ + len <= t.capacity_bytes then begin
        ignore (Slot_ring.pop_front t.pushes);
        ring_blit t ~into_ring:true t.push_data.(s) 0 (t.head + t.occ) len;
        t.occ <- t.occ + len;
        Stats.incr t.s_pushes;
        emit t Trace.Stream_push ~detail:"-" ~size:len;
        Completion_queue.add t.done_q t.push_k.(s) t.push_tag.(s);
        Slot_pool.release t.push_slots s;
        progress := true
      end
    end;
    if not (Slot_ring.is_empty t.pops) then begin
      let s = Slot_ring.peek_front t.pops in
      let size = t.pop_size.(s) in
      if t.occ >= size then begin
        ignore (Slot_ring.pop_front t.pops);
        ring_blit t ~into_ring:false t.pop_dst.(s) t.pop_off.(s) t.head size;
        t.head <- (t.head + size) mod t.capacity_bytes;
        t.occ <- t.occ - size;
        Stats.incr t.s_pops;
        emit t Trace.Stream_pop ~detail:"-" ~size;
        Completion_queue.add t.done_q t.pop_k.(s) t.pop_tag.(s);
        Slot_pool.release t.pop_slots s;
        progress := true
      end
    end
  done;
  Completion_queue.close t.done_q ~cycles:1

let push_slot t =
  let p = t.push_slots in
  let s = Slot_pool.take p in
  if s >= Array.length t.push_len then begin
    t.push_data <- Slot_pool.fit p t.push_data Bytes.empty;
    t.push_len <- Slot_pool.fit p t.push_len 0;
    t.push_k <- Slot_pool.fit p t.push_k Port.no_completion;
    t.push_tag <- Slot_pool.fit p t.push_tag 0
  end;
  s

let pop_slot t =
  let p = t.pop_slots in
  let s = Slot_pool.take p in
  if s >= Array.length t.pop_size then begin
    t.pop_size <- Slot_pool.fit p t.pop_size 0;
    t.pop_dst <- Slot_pool.fit p t.pop_dst Bytes.empty;
    t.pop_off <- Slot_pool.fit p t.pop_off 0;
    t.pop_k <- Slot_pool.fit p t.pop_k Port.no_completion;
    t.pop_tag <- Slot_pool.fit p t.pop_tag 0
  end;
  s

let push t src off len k tag =
  if len > t.capacity_bytes then invalid_arg (t.buf_name ^ ": push larger than FIFO capacity");
  if t.occ + len > t.capacity_bytes || not (Slot_ring.is_empty t.pushes) then begin
    Stats.incr t.s_full_stalls;
    emit t Trace.Stream_stall ~detail:"full" ~size:len
  end;
  let s = push_slot t in
  if Bytes.length t.push_data.(s) < len then t.push_data.(s) <- Bytes.create len;
  Bytes.blit src off t.push_data.(s) 0 len;
  t.push_len.(s) <- len;
  if t.push_k.(s) != k then t.push_k.(s) <- k;
  t.push_tag.(s) <- tag;
  Slot_ring.push_back t.pushes s;
  settle t

let pop t ~size dst off k tag =
  if size > t.capacity_bytes then invalid_arg (t.buf_name ^ ": pop larger than FIFO capacity");
  if t.occ < size || not (Slot_ring.is_empty t.pops) then begin
    Stats.incr t.s_empty_stalls;
    emit t Trace.Stream_stall ~detail:"empty" ~size
  end;
  let s = pop_slot t in
  t.pop_size.(s) <- size;
  if t.pop_dst.(s) != dst then t.pop_dst.(s) <- dst;
  t.pop_off.(s) <- off;
  if t.pop_k.(s) != k then t.pop_k.(s) <- k;
  t.pop_tag.(s) <- tag;
  Slot_ring.push_back t.pops s;
  settle t
