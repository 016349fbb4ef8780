type t = {
  queue : Event_queue.t;
  mutable now : int;  (* native int, mirroring the queue's tick repr *)
  mutable executed : int;
  mutable trace : Salam_obs.Trace.sink option;
}

let create () = { queue = Event_queue.create (); now = 0; executed = 0; trace = None }

let now t = Int64.of_int t.now

let now_i t = t.now

let trace t = t.trace

let set_trace t sink = t.trace <- sink

let schedule_at t ~tick action = Event_queue.schedule t.queue ~tick:(Int64.to_int tick) action

let schedule_at_i t ~tick action = Event_queue.schedule t.queue ~tick action

let run ?(max_ticks = Int64.max_int) t =
  (* clamp below the queue's empty sentinel so the comparison stays exact *)
  let lim =
    if Int64.compare max_ticks (Int64.of_int (max_int - 1)) >= 0 then max_int - 1
    else Int64.to_int max_ticks
  in
  while Event_queue.next_tick t.queue <= lim do
    let action = Event_queue.pop_action t.queue in
    t.now <- Event_queue.last_popped_tick t.queue;
    t.executed <- t.executed + 1;
    action ()
  done;
  Int64.of_int t.now

let idle t = Event_queue.is_empty t.queue

let advance_to t ~tick =
  let tick = Int64.to_int tick in
  if not (Event_queue.is_empty t.queue) then
    invalid_arg "Kernel.advance_to: event queue is not empty";
  if tick < t.now then invalid_arg "Kernel.advance_to: cannot move time backwards";
  t.now <- tick

let events_executed t = t.executed
