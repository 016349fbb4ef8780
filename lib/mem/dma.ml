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
    (* the transfer in progress *)
    mutable src : int;
    mutable dst : int;
    mutable len : int;
    mutable next_offset : int;
    mutable completed : int;
    mutable total_bursts : int;
    mutable on_done : unit -> unit;
    (* bursts in flight, by slot: a slot is reused for the next burst
       once its write completes *)
    b_src : int array;
    b_dst : int array;
    b_size : int array;
    mutable read_done : int -> unit;
    mutable write_done : int -> unit;
    mutable prime : unit -> unit;
    s_bytes : Stats.scalar;
    s_transfers : Stats.scalar;
  }

  let default_config ~name = { name; burst_bytes = 64; max_in_flight = 4 }

  (* the next burst of the transfer into slot [b], if any is left *)
  let issue_next t b =
    if t.next_offset < t.len then begin
      let off = t.next_offset in
      let burst = min t.cfg.burst_bytes (t.len - off) in
      t.next_offset <- off + burst;
      let src = t.src + off and dst = t.dst + off in
      t.b_src.(b) <- src;
      t.b_dst.(b) <- dst;
      t.b_size.(b) <- burst;
      (match t.tr with
      | Some tr when Trace.wants tr Trace.Dma_burst_start ->
          Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat:Trace.Dma_burst_start
            ~detail:"burst"
            [
              ("src", Trace.I (Int64.of_int src));
              ("dst", Trace.I (Int64.of_int dst));
              ("size", Trace.I (Int64.of_int burst));
            ]
      | Some _ | None -> ());
      Port.send t.mem_port Packet.Read ~addr:src ~size:burst t.read_done b
    end

  (* the functional copy happens between the read completing and the
     write being issued *)
  let read_done t b =
    let burst = t.b_size.(b) in
    Salam_ir.Memory.blit t.backing ~src:t.b_src.(b) ~dst:t.b_dst.(b) ~len:burst;
    Port.send t.mem_port Packet.Write ~addr:t.b_dst.(b) ~size:burst t.write_done b

  let write_done t b =
    let burst = t.b_size.(b) in
    Stats.add t.s_bytes (float_of_int burst);
    t.completed <- t.completed + 1;
    (match t.tr with
    | Some tr when Trace.wants tr Trace.Dma_burst_end ->
        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat:Trace.Dma_burst_end
          ~detail:"burst"
          [
            ("dst", Trace.I (Int64.of_int t.b_dst.(b)));
            ("size", Trace.I (Int64.of_int burst));
            ("done", Trace.I (Int64.of_int t.completed));
            ("total", Trace.I (Int64.of_int t.total_bursts));
          ]
    | Some _ | None -> ());
    if t.completed = t.total_bursts then begin
      t.active <- false;
      t.on_done ()
    end
    else issue_next t b

  (* prime the pipeline with up to [max_in_flight] bursts *)
  let prime t =
    for b = 0 to min t.cfg.max_in_flight t.total_bursts - 1 do
      issue_next t b
    done

  let create kernel clock stats cfg ~backing ~port =
    let group = Stats.group ~parent:stats cfg.name in
    let n = max 1 cfg.max_in_flight in
    let t =
      {
        kernel;
        clock;
        tr = Kernel.trace kernel;
        cfg;
        backing;
        mem_port = port;
        active = false;
        src = 0;
        dst = 0;
        len = 0;
        next_offset = 0;
        completed = 0;
        total_bursts = 0;
        on_done = ignore;
        b_src = Array.make n 0;
        b_dst = Array.make n 0;
        b_size = Array.make n 0;
        read_done = Port.no_completion;
        write_done = Port.no_completion;
        prime = ignore;
        s_bytes = Stats.scalar group "bytes_moved";
        s_transfers = Stats.scalar group "transfers";
      }
    in
    t.read_done <- read_done t;
    t.write_done <- write_done t;
    t.prime <- (fun () -> prime t);
    t

  let busy t = t.active

  let start t ~src ~dst ~len ~on_done =
    if t.active then invalid_arg (t.cfg.name ^ ": transfer already in progress");
    if len <= 0 then invalid_arg (t.cfg.name ^ ": transfer length must be positive");
    t.active <- true;
    Stats.incr t.s_transfers;
    t.src <- Int64.to_int src;
    t.dst <- Int64.to_int dst;
    t.len <- len;
    t.next_offset <- 0;
    t.completed <- 0;
    t.total_bursts <- (len + t.cfg.burst_bytes - 1) / t.cfg.burst_bytes;
    t.on_done <- on_done;
    Clock.schedule_cycles t.clock ~cycles:1 t.prime
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


  (* One chunk at a time, through a buffer of the call's own; the
     closures are built once per call, not per chunk. *)
  let stream_in t ~buffer ~src ~len ~on_done =
    if len <= 0 then invalid_arg (t.stream_name ^ ": length must be positive");
    let src = Int64.to_int src in
    let data = Bytes.create t.chunk_bytes in
    let offset = ref 0 and addr = ref 0 and chunk = ref 0 in
    let rec next () =
      if !offset >= len then on_done ()
      else begin
        let off = !offset in
        chunk := min t.chunk_bytes (len - off);
        offset := off + !chunk;
        addr := src + off;
        emit_chunk t ~detail:"in" ~addr:(Int64.of_int !addr) ~chunk:!chunk;
        Port.send t.mem_port Packet.Read ~addr:!addr ~size:!chunk read 0
      end
    and read _ =
      Salam_ir.Memory.blit_to_bytes t.backing ~src:!addr data 0 !chunk;
      Stream_buffer.push buffer data 0 !chunk accepted 0
    and accepted _ =
      Stats.add t.s_bytes (float_of_int !chunk);
      next ()
    in
    Clock.schedule_cycles t.clock ~cycles:1 next

  let stream_out t ~buffer ~dst ~len ~on_done =
    if len <= 0 then invalid_arg (t.stream_name ^ ": length must be positive");
    let dst = Int64.to_int dst in
    let data = Bytes.create t.chunk_bytes in
    let offset = ref 0 and addr = ref 0 and chunk = ref 0 in
    let rec next () =
      if !offset >= len then on_done ()
      else begin
        let off = !offset in
        chunk := min t.chunk_bytes (len - off);
        offset := off + !chunk;
        addr := dst + off;
        emit_chunk t ~detail:"out" ~addr:(Int64.of_int !addr) ~chunk:!chunk;
        Stream_buffer.pop buffer ~size:!chunk data 0 popped 0
      end
    and popped _ =
      Salam_ir.Memory.blit_from_bytes t.backing data 0 ~dst:!addr !chunk;
      Port.send t.mem_port Packet.Write ~addr:!addr ~size:!chunk written 0
    and written _ =
      Stats.add t.s_bytes (float_of_int !chunk);
      next ()
    in
    Clock.schedule_cycles t.clock ~cycles:1 next
end
