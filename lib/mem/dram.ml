open Salam_sim
module Trace = Salam_obs.Trace

type config = {
  name : string;
  base : int64;
  size : int;
  access_latency : int;
  bus_bytes : int;
}

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  mutable busy_until_cycle : int;
  done_q : Completion_queue.t;
      (** completions; due cycles strictly increase with arrival, since
          each request ends its transfer after the previous one's *)
  s_bytes_read : Stats.scalar;
  s_bytes_written : Stats.scalar;
  mutable port : Port.t option;
}

let create kernel clock stats cfg =
  let group = Stats.group ~parent:stats cfg.name in
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      busy_until_cycle = 0;
      done_q = Completion_queue.create clock;
      s_bytes_read = Stats.scalar group "bytes_read";
      s_bytes_written = Stats.scalar group "bytes_written";
      port = None;
    }
  in
  let handler op ~addr ~size k tag =
    (match op with
    | Packet.Read -> Stats.add t.s_bytes_read (float_of_int size)
    | Packet.Write -> Stats.add t.s_bytes_written (float_of_int size));
    (* the channel frees after the burst transfer; the requester sees
       transfer plus the fixed access latency *)
    let now = Clock.current_cycle_i t.clock in
    let start = if t.busy_until_cycle > now then t.busy_until_cycle else now in
    let transfer = (size + cfg.bus_bytes - 1) / cfg.bus_bytes in
    let finish = start + if transfer > 1 then transfer else 1 in
    t.busy_until_cycle <- finish;
    let delay = finish + cfg.access_latency - now in
    let delay = if delay > 1 then delay else 1 in
    (match t.tr with
    | Some tr when Trace.wants tr Trace.Dram_access ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
          ~cat:Trace.Dram_access ~detail:(Packet.op_name op)
          [
            ("addr", Trace.I (Int64.of_int addr));
            ("size", Trace.I (Int64.of_int size));
            ("lat", Trace.I (Int64.of_int delay));
          ]
    | Some _ | None -> ());
    Completion_queue.after t.done_q ~cycles:delay k tag
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false
