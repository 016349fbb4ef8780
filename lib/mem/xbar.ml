open Salam_sim
module Trace = Salam_obs.Trace

type config = { name : string; latency : int; width : int }

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  routes : Port.t Window_table.t;
  mutable default : Port.t option;
  reqs : Req_table.t;
  mutable route_ix : int array;
      (** by slot: the route table entry a routed request takes, or -1
          for the default *)
  queue : Slot_ring.t;  (** request slots waiting for width, in arrival order *)
  forwards : Completion_queue.t;  (** routed requests crossing the latency *)
  mutable forward : int -> unit;  (** hands a routed slot to its target *)
  mutable service_scheduled : bool;
  mutable service_thunk : unit -> unit;
  s_routed : Stats.scalar;
  mutable port : Port.t option;
}

let set_default t port = t.default <- Some port

let add_range t ~base ~size target =
  Window_table.add ~disjoint:t.cfg.name t.routes ~base:(Int64.to_int base) ~size target

(* the route holding [addr], or -1 for the default *)
let route t addr =
  let i = Window_table.find t.routes addr in
  if i < 0 && t.default = None then
    invalid_arg (Printf.sprintf "%s: no route for address %d" t.cfg.name addr);
  i

let target t i =
  if i >= 0 then Window_table.target t.routes i
  else match t.default with Some p -> p | None -> assert false

(* Up to [width] requests per cycle, each routed now and handed to its
   target after [latency] cycles. The hand-offs of one pass fall due
   together, so they share one event (see {!Completion_queue}). *)
let rec service t =
  t.service_scheduled <- false;
  let rq = t.reqs in
  let width_left = ref t.cfg.width in
  while !width_left > 0 && not (Slot_ring.is_empty t.queue) do
    let s = Slot_ring.pop_front t.queue in
    decr width_left;
    Stats.incr t.s_routed;
    let ix = route t rq.Req_table.addr.(s) in
    t.route_ix.(s) <- ix;
    (match t.tr with
    | Some tr when Trace.wants tr Trace.Xbar_route ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat:Trace.Xbar_route
          ~detail:(Port.name (target t ix))
          [
            ("addr", Trace.I (Int64.of_int rq.Req_table.addr.(s)));
            ("size", Trace.I (Int64.of_int rq.Req_table.size.(s)));
          ]
    | Some _ | None -> ());
    Completion_queue.add t.forwards t.forward s
  done;
  Completion_queue.close t.forwards ~cycles:t.cfg.latency;
  if not (Slot_ring.is_empty t.queue) then begin
    (match t.tr with
    | Some tr when Trace.wants tr Trace.Xbar_contention ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat:Trace.Xbar_contention
          ~detail:"width"
          [ ("queued", Trace.I (Int64.of_int (Slot_ring.length t.queue))) ]
    | Some _ | None -> ());
    schedule_service t ~cycles:1
  end

and schedule_service t ~cycles =
  t.service_scheduled <- true;
  Clock.schedule_cycles t.clock ~cycles t.service_thunk

let forward t s =
  let rq = t.reqs in
  let op = rq.Req_table.op.(s) and addr = rq.Req_table.addr.(s) in
  let size = rq.Req_table.size.(s) and k = rq.Req_table.k.(s) and tag = rq.Req_table.tag.(s) in
  Req_table.release rq s;
  Port.send (target t t.route_ix.(s)) op ~addr ~size k tag

let create kernel clock stats cfg =
  let group = Stats.group ~parent:stats cfg.name in
  let reqs = Req_table.create () in
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      routes = Window_table.create ();
      default = None;
      reqs;
      route_ix = [||];
      queue = Slot_ring.create ~capacity:16 ();
      forwards = Completion_queue.create clock;
      forward = Port.no_completion;
      service_scheduled = false;
      service_thunk = ignore;
      s_routed = Stats.scalar group "packets_routed";
      port = None;
    }
  in
  t.forward <- forward t;
  t.service_thunk <- (fun () -> service t);
  let handler op ~addr ~size k tag =
    let s = Req_table.alloc reqs op ~addr ~size k tag in
    if s >= Array.length t.route_ix then
      t.route_ix <- Slot_pool.fit reqs.Req_table.slots t.route_ix (-1);
    Slot_ring.push_back t.queue s;
    if not t.service_scheduled then schedule_service t ~cycles:0
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false
