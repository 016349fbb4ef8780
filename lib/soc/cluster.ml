open Salam_mem

type t = {
  sys : System.t;
  fabric : Fabric.t;
  cluster_name : string;
  clock : Salam_sim.Clock.t;
  xbar : Xbar.t;
  mutable members : Accelerator.t list;
  mutable counters : int;
}

let create sys fabric ~name ~clock_mhz ?(xbar_width = 4) () =
  let clock = System.clock sys ~mhz:clock_mhz in
  let xbar =
    Xbar.create (System.kernel sys) clock (System.stats sys)
      { Xbar.name = name ^ ".local_xbar"; latency = 1; width = xbar_width }
  in
  Xbar.set_default xbar (Fabric.port fabric);
  { sys; fabric; cluster_name = name; clock; xbar; members = []; counters = 0 }

let local_port t = Xbar.port t.xbar

let fresh t prefix =
  t.counters <- t.counters + 1;
  Printf.sprintf "%s.%s%d" t.cluster_name prefix t.counters

let add_accelerator t acc =
  let comm = Accelerator.comm acc in
  Comm_interface.set_default_route comm (Xbar.port t.xbar);
  let base = Comm_interface.mmr_base comm in
  let size = Comm_interface.mmr_size comm in
  Xbar.add_range t.xbar ~base ~size (Comm_interface.mmr_port comm);
  Fabric.add_range t.fabric ~base ~size (Comm_interface.mmr_port comm);
  t.members <- acc :: t.members

let add_private_spm t acc ~size ?(config = fun c -> c) () =
  let base = System.alloc_region t.sys ~bytes:size in
  let name = Accelerator.name acc ^ ".spm" in
  let cfg = config (Spm.default_config ~name ~base ~size) in
  let spm = Spm.create (System.kernel t.sys) (Accelerator.clock acc) (System.stats t.sys) cfg in
  Comm_interface.add_route (Accelerator.comm acc) ~base ~size (Spm.port spm);
  Xbar.add_range t.xbar ~base ~size (Spm.port spm);
  Fabric.add_range t.fabric ~base ~size (Spm.port spm);
  (base, spm)

let add_shared_spm t ~size ?(config = fun c -> c) () =
  let base = System.alloc_region t.sys ~bytes:size in
  let name = fresh t "shared_spm" in
  let cfg = config (Spm.default_config ~name ~base ~size) in
  let spm = Spm.create (System.kernel t.sys) t.clock (System.stats t.sys) cfg in
  Xbar.add_range t.xbar ~base ~size (Spm.port spm);
  Fabric.add_range t.fabric ~base ~size (Spm.port spm);
  (base, spm)

let add_private_cache t acc ~size ?(config = fun c -> c) () =
  let name = Accelerator.name acc ^ ".l1" in
  let cfg = config (Cache.default_config ~name ~size) in
  let cache =
    Cache.create (System.kernel t.sys) (Accelerator.clock acc) (System.stats t.sys) cfg
      ~lower:(Xbar.port t.xbar)
  in
  Comm_interface.set_default_route (Accelerator.comm acc) (Cache.port cache);
  cache

let add_dma t ?config () =
  let cfg =
    match config with Some c -> c | None -> Dma.Block.default_config ~name:(fresh t "dma")
  in
  Dma.Block.create (System.kernel t.sys) t.clock (System.stats t.sys) cfg
    ~backing:(System.backing t.sys) ~port:(Xbar.port t.xbar)

let add_stream_link t ?(window_bytes = 4096) ~producer ~consumer ~capacity_bytes () =
  let window = window_bytes in
  let push_base = System.alloc_region t.sys ~bytes:window in
  let pop_base = System.alloc_region t.sys ~bytes:window in
  let name = fresh t "stream" in
  let buffer =
    Stream_buffer.create (System.kernel t.sys) t.clock (System.stats t.sys) ~name
      ~capacity_bytes
  in
  Comm_interface.map_stream_push (Accelerator.comm producer) ~base:push_base ~size:window buffer;
  Comm_interface.map_stream_pop (Accelerator.comm consumer) ~base:pop_base ~size:window buffer;
  (* FIFO correctness requires program-order issue within the windows *)
  Accelerator.add_ordered_range producer ~base:push_base ~size:window;
  Accelerator.add_ordered_range consumer ~base:pop_base ~size:window;
  (push_base, pop_base, buffer)

let stream_dma t ~name ~chunk_bytes =
  Dma.Stream.create (System.kernel t.sys) t.clock (System.stats t.sys) ~name ~chunk_bytes
    ~backing:(System.backing t.sys) ~port:(Xbar.port t.xbar)
