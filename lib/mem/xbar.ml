open Salam_sim
module Trace = Salam_obs.Trace

type config = { name : string; latency : int; width : int }

type range = { base : int64; size : int; target : Port.t }

type pending = { pkt : Packet.t; on_complete : unit -> unit }

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  mutable ranges : range list;
  mutable default : Port.t option;
  queue : pending Queue.t;
  mutable service_scheduled : bool;
  s_routed : Stats.scalar;
  mutable port : Port.t option;
}

let set_default t port = t.default <- Some port

let overlaps a b =
  let a_end = Int64.add a.base (Int64.of_int a.size) in
  let b_end = Int64.add b.base (Int64.of_int b.size) in
  Int64.compare a.base b_end < 0 && Int64.compare b.base a_end < 0

let add_range t ~base ~size target =
  let r = { base; size; target } in
  List.iter
    (fun existing ->
      if overlaps existing r then
        invalid_arg
          (Printf.sprintf "%s: range %Ld+%d overlaps %Ld+%d" t.cfg.name base size
             existing.base existing.size))
    t.ranges;
  t.ranges <- r :: t.ranges

let route t addr =
  match
    List.find_opt
      (fun r ->
        Int64.compare addr r.base >= 0
        && Int64.compare addr (Int64.add r.base (Int64.of_int r.size)) < 0)
      t.ranges
  with
  | Some r -> Some r.target
  | None -> t.default

let rec service t =
  t.service_scheduled <- false;
  let width_left = ref t.cfg.width in
  while !width_left > 0 && not (Queue.is_empty t.queue) do
    let p = Queue.pop t.queue in
    decr width_left;
    Stats.incr t.s_routed;
    match route t p.pkt.Packet.addr with
    | Some target ->
        (match t.tr with
        | Some tr when Trace.wants tr Trace.Xbar_route ->
            Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
              ~cat:Trace.Xbar_route
              ~detail:(Port.name target)
              [
                ("addr", Trace.I p.pkt.Packet.addr);
                ("size", Trace.I (Int64.of_int p.pkt.Packet.size));
              ]
        | Some _ | None -> ());
        Clock.schedule_cycles t.clock ~cycles:t.cfg.latency (fun () ->
            Port.send target p.pkt ~on_complete:p.on_complete)
    | None ->
        invalid_arg
          (Printf.sprintf "%s: no route for address %Ld" t.cfg.name p.pkt.Packet.addr)
  done;
  if not (Queue.is_empty t.queue) then begin
    (match t.tr with
    | Some tr when Trace.wants tr Trace.Xbar_contention ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
          ~cat:Trace.Xbar_contention ~detail:"width"
          [ ("queued", Trace.I (Int64.of_int (Queue.length t.queue))) ]
    | Some _ | None -> ());
    t.service_scheduled <- true;
    Clock.schedule_cycles t.clock ~cycles:1 (fun () -> service t)
  end

let create kernel clock stats cfg =
  let group = Stats.group ~parent:stats cfg.name in
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      ranges = [];
      default = None;
      queue = Queue.create ();
      service_scheduled = false;
      s_routed = Stats.scalar group "packets_routed";
      port = None;
    }
  in
  let handler pkt ~on_complete =
    Queue.add { pkt; on_complete } t.queue;
    if not t.service_scheduled then begin
      t.service_scheduled <- true;
      Clock.schedule_cycles t.clock ~cycles:0 (fun () -> service t)
    end
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false

(* Pure interconnect: the route table is construction-time configuration
   and the queue is in-flight timing state, so the section is empty and
   both directions just require the queue drained. *)
let checkpoint_agent t =
  let quiesce what =
    if not (Queue.is_empty t.queue) then
      raise
        (Checkpoint.Invalid
           (Printf.sprintf "%s: %s with %d packet(s) queued" t.cfg.name what
              (Queue.length t.queue)))
  in
  {
    Checkpoint.agent_name = t.cfg.name;
    capture =
      (fun () ->
        quiesce "checkpoint capture";
        []);
    restore = (fun _sec -> quiesce "checkpoint restore");
  }
