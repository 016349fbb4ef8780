(* Sleeping components: a table of virtual ticks, one row per registered
   sleeper. A row that is asleep stands for a chain of periodic events
   that would each do nothing: the row's (tick, seq) is the position the
   next of them would hold in the queue. Rows are few (one per engine),
   so the earliest one is found by a scan and cached in [v_min]. *)
type t = {
  queue : Event_queue.t;
  mutable now : int;  (* native int, mirroring the queue's tick repr *)
  mutable executed : int;
  mutable trace : Salam_obs.Trace.sink option;
  mutable v_tick : int array;
  mutable v_seq : int array;
  mutable v_period : int array;
  mutable v_wake : int array;  (** [max_int]: only {!wake} ends the sleep *)
  mutable v_asleep : bool array;
  mutable v_action : (unit -> unit) array;
  mutable n_sleepers : int;
  mutable n_asleep : int;
  mutable n_waking : int;  (** sleepers asleep with a finite wake tick *)
  mutable v_min : int;  (** the earliest sleeper asleep, or -1 *)
}

type sleeper = int

let create () =
  {
    queue = Event_queue.create ();
    now = 0;
    executed = 0;
    trace = None;
    v_tick = [||];
    v_seq = [||];
    v_period = [||];
    v_wake = [||];
    v_asleep = [||];
    v_action = [||];
    n_sleepers = 0;
    n_asleep = 0;
    n_waking = 0;
    v_min = -1;
  }

let now t = Int64.of_int t.now

let now_i t = t.now

let trace t = t.trace

let set_trace t sink = t.trace <- sink

let schedule_at t ~tick action = Event_queue.schedule t.queue ~tick:(Int64.to_int tick) action

let schedule_at_i t ~tick action = Event_queue.schedule t.queue ~tick action

let reserve_seq t = Event_queue.reserve t.queue

let schedule_reserved t ~tick ~seq action = Event_queue.schedule_reserved t.queue ~tick ~seq action

let add_sleeper t ~period =
  if period < 1 then invalid_arg "Kernel.add_sleeper: period must be positive";
  let s = t.n_sleepers in
  let grow a fill =
    let b = Array.make (s + 1) fill in
    Array.blit a 0 b 0 s;
    b
  in
  t.v_tick <- grow t.v_tick 0;
  t.v_seq <- grow t.v_seq 0;
  t.v_period <- grow t.v_period period;
  t.v_wake <- grow t.v_wake max_int;
  t.v_asleep <- grow t.v_asleep false;
  t.v_action <- grow t.v_action ignore;
  t.n_sleepers <- s + 1;
  s

let update_min t =
  let best = ref (-1) in
  for s = 0 to t.n_sleepers - 1 do
    if t.v_asleep.(s) then
      let b = !best in
      if
        b < 0
        || t.v_tick.(s) < t.v_tick.(b)
        || (t.v_tick.(s) = t.v_tick.(b) && t.v_seq.(s) < t.v_seq.(b))
      then best := s
  done;
  t.v_min <- !best

let sleep t s ~tick ~seq ~wake action =
  if t.v_asleep.(s) then invalid_arg "Kernel.sleep: already asleep";
  if tick < t.now then invalid_arg "Kernel.sleep: tick is in the past";
  if t.v_action.(s) != action then t.v_action.(s) <- action;
  t.v_tick.(s) <- tick;
  t.v_seq.(s) <- seq;
  t.v_wake.(s) <- wake;
  t.v_asleep.(s) <- true;
  t.n_asleep <- t.n_asleep + 1;
  if wake < max_int then t.n_waking <- t.n_waking + 1;
  update_min t

let set_awake t s =
  t.v_asleep.(s) <- false;
  t.n_asleep <- t.n_asleep - 1;
  if t.v_wake.(s) < max_int then t.n_waking <- t.n_waking - 1;
  update_min t

(* The virtual tick becomes the event it stands for, at its position. *)
let make_real t s =
  Event_queue.schedule_reserved t.queue ~tick:t.v_tick.(s) ~seq:t.v_seq.(s) t.v_action.(s);
  set_awake t s

let wake t s =
  if not t.v_asleep.(s) then invalid_arg "Kernel.wake: not asleep";
  let tick = t.v_tick.(s) in
  make_real t s;
  tick

(* Pass every virtual tick that sorts before the queue head, earliest
   first. Passing one stands for running a tick that changes nothing but
   chains its successor one period on: the successor takes its
   insertion number now, when the chained event would have taken it, so
   every other event keeps its (tick, seq) order. A virtual tick that
   reaches its wake tick turns real and becomes the head. With the queue
   empty only a sleeper with a wake tick can bring anything back, so
   while one is asleep every virtual tick keeps passing; when none is,
   the run ends with the rest asleep. *)
let rec pass t lim =
  let s = t.v_min in
  let tick = t.v_tick.(s) and seq = t.v_seq.(s) in
  let q = t.queue in
  let first =
    if Event_queue.is_empty q then t.n_waking > 0
    else
      let ht = Event_queue.next_tick q in
      tick < ht || (tick = ht && seq < Event_queue.next_seq q)
  in
  if first && tick <= lim then
    if tick = t.v_wake.(s) then make_real t s
    else begin
      t.v_tick.(s) <- tick + t.v_period.(s);
      t.v_seq.(s) <- Event_queue.reserve q;
      if t.n_asleep > 1 then update_min t;
      pass t lim
    end

let run ?(max_ticks = Int64.max_int) t =
  (* clamp below the queue's empty sentinel so the comparison stays exact *)
  let lim =
    if Int64.compare max_ticks (Int64.of_int (max_int - 1)) >= 0 then max_int - 1
    else Int64.to_int max_ticks
  in
  let continue_ = ref true in
  while !continue_ do
    if t.n_asleep > 0 then pass t lim;
    if Event_queue.next_tick t.queue <= lim then begin
      let action = Event_queue.pop_action t.queue in
      t.now <- Event_queue.last_popped_tick t.queue;
      t.executed <- t.executed + 1;
      action ()
    end
    else continue_ := false
  done;
  Int64.of_int t.now

let idle t = Event_queue.is_empty t.queue && t.n_asleep = 0

let advance_to t ~tick =
  let tick = Int64.to_int tick in
  if not (idle t) then invalid_arg "Kernel.advance_to: the kernel is not idle";
  if tick < t.now then invalid_arg "Kernel.advance_to: cannot move time backwards";
  t.now <- tick

let events_executed t = t.executed
