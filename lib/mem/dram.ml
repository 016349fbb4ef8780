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
  mutable busy_until_cycle : int64;
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
      busy_until_cycle = 0L;
      s_bytes_read = Stats.scalar group "bytes_read";
      s_bytes_written = Stats.scalar group "bytes_written";
      port = None;
    }
  in
  let handler (pkt : Packet.t) ~on_complete =
    (match pkt.op with
    | Packet.Read -> Stats.add t.s_bytes_read (float_of_int pkt.size)
    | Packet.Write -> Stats.add t.s_bytes_written (float_of_int pkt.size));
    (* the channel frees after the burst transfer; the requester sees
       transfer plus the fixed access latency *)
    let now = Clock.current_cycle t.clock in
    let start = if Int64.compare t.busy_until_cycle now > 0 then t.busy_until_cycle else now in
    let transfer = (pkt.size + cfg.bus_bytes - 1) / cfg.bus_bytes in
    let finish = Int64.add start (Int64.of_int (max 1 transfer)) in
    t.busy_until_cycle <- finish;
    let done_cycle = Int64.add finish (Int64.of_int cfg.access_latency) in
    let delay = Int64.to_int (Int64.sub done_cycle now) in
    (match t.tr with
    | Some tr when Trace.wants tr Trace.Dram_access ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
          ~cat:Trace.Dram_access
          ~detail:(match pkt.op with Packet.Read -> "read" | Packet.Write -> "write")
          [
            ("addr", Trace.I pkt.Packet.addr);
            ("size", Trace.I (Int64.of_int pkt.size));
            ("lat", Trace.I (Int64.of_int (max 1 delay)));
          ]
    | Some _ | None -> ());
    Clock.schedule_cycles t.clock ~cycles:(max 1 delay) on_complete
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false

(* The DRAM holds no data (the backing memory does); [busy_until_cycle]
   is the only mutable state and it is timing-derived. Quiescence means
   the channel has drained; restore resets it to "free since forever",
   which is indistinguishable from any past cycle because the handler
   only ever compares it against the current cycle. *)
let checkpoint_agent t =
  let quiesce what =
    let now = Clock.current_cycle t.clock in
    if Int64.compare t.busy_until_cycle now > 0 then
      raise
        (Checkpoint.Invalid
           (Printf.sprintf "%s: %s with the channel busy until cycle %Ld (now %Ld)" t.cfg.name
              what t.busy_until_cycle now))
  in
  {
    Checkpoint.agent_name = t.cfg.name;
    capture =
      (fun () ->
        quiesce "checkpoint capture";
        [ ("base", Checkpoint.Int t.cfg.base); ("size", Checkpoint.Int (Int64.of_int t.cfg.size)) ]);
    restore =
      (fun sec ->
        quiesce "checkpoint restore";
        let expect field actual =
          let got = Checkpoint.find_int sec field in
          if got <> actual then
            raise
              (Checkpoint.Invalid
                 (Printf.sprintf "%s: snapshot %s %Ld does not match this system's %Ld"
                    t.cfg.name field got actual))
        in
        expect "base" t.cfg.base;
        expect "size" (Int64.of_int t.cfg.size);
        t.busy_until_cycle <- 0L);
  }
