open Salam_sim
module Trace = Salam_obs.Trace

module Block = struct
  type config = { name : string; burst_bytes : int; max_in_flight : int }

  type t = {
    kernel : Kernel.t;
    clock : Clock.t;
    tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
    cfg : config;
    backing : Salam_ir.Memory.t;
    mem_port : Port.t;
    mutable active : bool;
    s_bytes : Stats.scalar;
    s_transfers : Stats.scalar;
  }

  let default_config ~name = { name; burst_bytes = 64; max_in_flight = 4 }

  let create kernel clock stats cfg ~backing ~port =
    let group = Stats.group ~parent:stats cfg.name in
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      backing;
      mem_port = port;
      active = false;
      s_bytes = Stats.scalar group "bytes_moved";
      s_transfers = Stats.scalar group "transfers";
    }

  let busy t = t.active

  (* A mid-transfer DMA has bursts in flight that no checkpoint can
     represent; both capture and restore require the engine idle. *)
  let checkpoint_agent t =
    let quiesce what =
      if t.active then
        raise
          (Checkpoint.Invalid
             (Printf.sprintf "%s: %s with a transfer in progress" t.cfg.name what))
    in
    {
      Checkpoint.agent_name = t.cfg.name;
      capture =
        (fun () ->
          quiesce "checkpoint capture";
          []);
      restore =
        (fun _sec ->
          quiesce "checkpoint restore";
          t.active <- false);
    }


  let start t ~src ~dst ~len ~on_done =
    if t.active then invalid_arg (t.cfg.name ^ ": transfer already in progress");
    if len <= 0 then invalid_arg (t.cfg.name ^ ": transfer length must be positive");
    t.active <- true;
    Stats.incr t.s_transfers;
    let next_offset = ref 0 in
    let completed = ref 0 in
    let total_bursts = (len + t.cfg.burst_bytes - 1) / t.cfg.burst_bytes in
    let rec issue_next () =
      if !next_offset < len then begin
        let off = !next_offset in
        let burst = min t.cfg.burst_bytes (len - off) in
        next_offset := off + burst;
        let src_addr = Int64.add src (Int64.of_int off) in
        let dst_addr = Int64.add dst (Int64.of_int off) in
        (match t.tr with
        | Some tr when Trace.wants tr Trace.Dma_burst_start ->
            Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
              ~cat:Trace.Dma_burst_start ~detail:"burst"
              [
                ("src", Trace.I src_addr);
                ("dst", Trace.I dst_addr);
                ("size", Trace.I (Int64.of_int burst));
              ]
        | Some _ | None -> ());
        let read_pkt = Packet.make Packet.Read ~addr:src_addr ~size:burst in
        Port.send t.mem_port read_pkt ~on_complete:(fun () ->
            (* functional copy happens between the read completing and
               the write being issued *)
            let data = Salam_ir.Memory.load_bytes t.backing src_addr burst in
            Salam_ir.Memory.store_bytes t.backing dst_addr data;
            let write_pkt = Packet.make Packet.Write ~addr:dst_addr ~size:burst in
            Port.send t.mem_port write_pkt ~on_complete:(fun () ->
                Stats.add t.s_bytes (float_of_int burst);
                incr completed;
                (match t.tr with
                | Some tr when Trace.wants tr Trace.Dma_burst_end ->
                    Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
                      ~cat:Trace.Dma_burst_end ~detail:"burst"
                      [
                        ("dst", Trace.I dst_addr);
                        ("size", Trace.I (Int64.of_int burst));
                        ("done", Trace.I (Int64.of_int !completed));
                        ("total", Trace.I (Int64.of_int total_bursts));
                      ]
                | Some _ | None -> ());
                if !completed = total_bursts then begin
                  t.active <- false;
                  on_done ()
                end
                else issue_next ()))
      end
    in
    (* prime the pipeline with up to max_in_flight bursts *)
    let initial = min t.cfg.max_in_flight total_bursts in
    Clock.schedule_cycles t.clock ~cycles:1 (fun () ->
        for _ = 1 to initial do
          issue_next ()
        done)
end

module Stream = struct
  type t = {
    kernel : Kernel.t;
    clock : Clock.t;
    tr : Trace.sink option;
    stream_name : string;
    chunk_bytes : int;
    backing : Salam_ir.Memory.t;
    mem_port : Port.t;
    s_bytes : Stats.scalar;
  }

  let create kernel clock stats ~name ~chunk_bytes ~backing ~port =
    if chunk_bytes <= 0 then invalid_arg "Dma.Stream: chunk_bytes must be positive";
    let group = Stats.group ~parent:stats name in
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      stream_name = name;
      chunk_bytes;
      backing;
      mem_port = port;
      s_bytes = Stats.scalar group "bytes_moved";
    }

  let emit_chunk t ~detail ~addr ~chunk =
    match t.tr with
    | Some tr when Trace.wants tr Trace.Dma_burst_start ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.stream_name
          ~cat:Trace.Dma_burst_start ~detail
          [ ("addr", Trace.I addr); ("size", Trace.I (Int64.of_int chunk)) ]
    | Some _ | None -> ()


  let stream_in t ~buffer ~src ~len ~on_done =
    if len <= 0 then invalid_arg (t.stream_name ^ ": length must be positive");
    let offset = ref 0 in
    let rec next () =
      if !offset >= len then on_done ()
      else begin
        let off = !offset in
        let chunk = min t.chunk_bytes (len - off) in
        offset := off + chunk;
        let addr = Int64.add src (Int64.of_int off) in
        emit_chunk t ~detail:"in" ~addr ~chunk;
        let pkt = Packet.make Packet.Read ~addr ~size:chunk in
        Port.send t.mem_port pkt ~on_complete:(fun () ->
            let data = Salam_ir.Memory.load_bytes t.backing addr chunk in
            Stream_buffer.push buffer data ~on_accepted:(fun () ->
                Stats.add t.s_bytes (float_of_int chunk);
                next ()))
      end
    in
    Clock.schedule_cycles t.clock ~cycles:1 next

  let stream_out t ~buffer ~dst ~len ~on_done =
    if len <= 0 then invalid_arg (t.stream_name ^ ": length must be positive");
    let offset = ref 0 in
    let rec next () =
      if !offset >= len then on_done ()
      else begin
        let off = !offset in
        let chunk = min t.chunk_bytes (len - off) in
        offset := off + chunk;
        let addr = Int64.add dst (Int64.of_int off) in
        emit_chunk t ~detail:"out" ~addr ~chunk;
        Stream_buffer.pop buffer ~size:chunk ~on_data:(fun data ->
            Salam_ir.Memory.store_bytes t.backing addr data;
            let pkt = Packet.make Packet.Write ~addr ~size:chunk in
            Port.send t.mem_port pkt ~on_complete:(fun () ->
                Stats.add t.s_bytes (float_of_int chunk);
                next ()))
      end
    in
    Clock.schedule_cycles t.clock ~cycles:1 next
end
