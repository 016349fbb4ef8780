open Salam_sim
open Salam_ir
open Salam_mem
module Trace = Salam_obs.Trace

module Layout = struct
  let status = 0

  let control = 1

  let ret_value = 2

  let arg i = 3 + i
end

type t = {
  system : System.t;
  iface_name : string;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  mmr_base : int64;
  mmr_words : int;
  routes : Port.t Window_table.t;
  mutable default : Port.t option;
  stream_pops : Stream_buffer.t Window_table.t;
  stream_pushes : Stream_buffer.t Window_table.t;
  (* engine stream pops in flight, by slot of [pops]: the popped bytes
     land in the slot's [pop_raw] buffer and become a payload in [dst]
     at [at] when the pop completes *)
  pops : Slot_pool.t;
  mutable pop_raw : Bytes.t array;
  mutable pop_ty : Ty.t array;
  mutable pop_dst : Bytes.t array;
  mutable pop_at : int array;
  mutable pop_k : (int -> unit) array;
  mutable pop_tag : int array;
  mutable pop_done : int -> unit;
  push_raw : Bytes.t;  (** scratch: a pushed payload laid out as in memory *)
  mmr_reqs : Salam_mem.Req_table.t;  (** MMR accesses crossing their cycle *)
  mmr_done : Completion_queue.t;
  mutable control_handlers : (int64 -> unit) list;
  mutable irq_handlers : (unit -> unit) list;
  mutable mmr_port : Port.t option;
  s_loads : Stats.scalar;
  s_stores : Stats.scalar;
}

let create system ~name ~clock ~mmr_words =
  if mmr_words < 3 then invalid_arg "Comm_interface.create: need at least 3 MMR words";
  let mmr_base = System.alloc_region system ~bytes:(mmr_words * 8) in
  let group = Stats.group ~parent:(System.stats system) name in
  let t =
    {
      system;
      iface_name = name;
      tr = Kernel.trace (System.kernel system);
      mmr_base;
      mmr_words;
      routes = Window_table.create ();
      default = None;
      stream_pops = Window_table.create ();
      stream_pushes = Window_table.create ();
      pops = Slot_pool.create ~capacity:4 ();
      pop_raw = [||];
      pop_ty = [||];
      pop_dst = [||];
      pop_at = [||];
      pop_k = [||];
      pop_tag = [||];
      pop_done = Port.no_completion;
      push_raw = Bytes.create 8;
      mmr_reqs = Salam_mem.Req_table.create ();
      mmr_done = Completion_queue.create clock;
      control_handlers = [];
      irq_handlers = [];
      mmr_port = None;
      s_loads = Stats.scalar group "loads";
      s_stores = Stats.scalar group "stores";
    }
  in
  (* MMR timing port: one interface-clock cycle per access; control
     writes fire the start logic after the write completes. *)
  let mmr_access s =
    let rq = t.mmr_reqs in
    let write = rq.Salam_mem.Req_table.op.(s) = Packet.Write in
    let addr = Int64.of_int rq.Salam_mem.Req_table.addr.(s) in
    Salam_mem.Req_table.complete rq s;
    if write then begin
      let word = Int64.to_int (Int64.div (Int64.sub addr mmr_base) 8L) in
      (match t.tr with
      | Some tr when Trace.wants tr Trace.Mmr_write ->
          let value = Bits.to_int64 (Memory.load (System.backing system) Ty.I64 addr) in
          Trace.emit tr ~tick:(Kernel.now (System.kernel system)) ~comp:t.iface_name
            ~cat:Trace.Mmr_write ~detail:"bus"
            [ ("word", Trace.I (Int64.of_int word)); ("val", Trace.I value) ]
      | Some _ | None -> ());
      if word = Layout.control then begin
        let value = Bits.to_int64 (Memory.load (System.backing system) Ty.I64 addr) in
        List.iter (fun h -> h value) t.control_handlers
      end
    end
  in
  let handler op ~addr ~size k tag =
    let s = Salam_mem.Req_table.alloc t.mmr_reqs op ~addr ~size k tag in
    Completion_queue.after t.mmr_done ~cycles:1 mmr_access s
  in
  t.mmr_port <- Some (Port.make ~name:(name ^ ".mmr") handler);
  t

let mmr_base t = t.mmr_base

let mmr_size t = t.mmr_words * 8

let mmr_addr t word =
  if word < 0 || word >= t.mmr_words then invalid_arg (t.iface_name ^ ": MMR index out of range");
  Int64.add t.mmr_base (Int64.of_int (word * 8))

let read_mmr t word = Bits.to_int64 (Memory.load (System.backing t.system) Ty.I64 (mmr_addr t word))

let write_mmr t word v =
  (match t.tr with
  | Some tr when Trace.wants tr Trace.Mmr_write ->
      Trace.emit tr ~tick:(Kernel.now (System.kernel t.system)) ~comp:t.iface_name
        ~cat:Trace.Mmr_write ~detail:"local"
        [ ("word", Trace.I (Int64.of_int word)); ("val", Trace.I v) ]
  | Some _ | None -> ());
  Memory.store (System.backing t.system) Ty.I64 (mmr_addr t word) (Bits.Int v)

let mmr_port t = match t.mmr_port with Some p -> p | None -> assert false

let on_control_write t h = t.control_handlers <- t.control_handlers @ [ h ]

let set_interrupt t h = t.irq_handlers <- t.irq_handlers @ [ h ]

let raise_interrupt t =
  (match t.tr with
  | Some tr when Trace.wants tr Trace.Interrupt ->
      Trace.emit tr ~tick:(Kernel.now (System.kernel t.system)) ~comp:t.iface_name
        ~cat:Trace.Interrupt ~detail:"raise" []
  | Some _ | None -> ());
  List.iter (fun h -> h ()) t.irq_handlers

let add_route t ~base ~size target =
  Window_table.add t.routes ~base:(Int64.to_int base) ~size target

let set_default_route t port = t.default <- Some port

let map_stream_pop t ~base ~size buffer =
  Window_table.add t.stream_pops ~base:(Int64.to_int base) ~size buffer

let map_stream_push t ~base ~size buffer =
  Window_table.add t.stream_pushes ~base:(Int64.to_int base) ~size buffer

let route t addr ~what =
  let i = Window_table.find t.routes addr in
  if i >= 0 then Window_table.target t.routes i
  else
    match t.default with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "%s: no route for %s address %d" t.iface_name what addr)

let pop_slot t =
  let p = t.pops in
  let s = Slot_pool.take p in
  if s >= Array.length t.pop_at then begin
    let n = Array.length t.pop_raw in
    t.pop_raw <- Slot_pool.fit p t.pop_raw Bytes.empty;
    for i = n to Array.length t.pop_raw - 1 do
      t.pop_raw.(i) <- Bytes.create 8
    done;
    t.pop_ty <- Slot_pool.fit p t.pop_ty Ty.Void;
    t.pop_dst <- Slot_pool.fit p t.pop_dst Bytes.empty;
    t.pop_at <- Slot_pool.fit p t.pop_at 0;
    t.pop_k <- Slot_pool.fit p t.pop_k Port.no_completion;
    t.pop_tag <- Slot_pool.fit p t.pop_tag 0
  end;
  s

(* a stream pop has delivered its bytes: they become the load's payload *)
let pop_done t s =
  Memory.decode_into t.pop_ty.(s) t.pop_raw.(s) 0 t.pop_dst.(s) t.pop_at.(s);
  let k = t.pop_k.(s) and tag = t.pop_tag.(s) in
  Slot_pool.release t.pops s;
  k tag

(* The engine's accesses: a load or store in a stream window pops or
   pushes the FIFO; any other goes to its route's port with the
   engine's own completion. The functional effect happens at issue, the
   timing response only releases dependants (see {!Salam_mem.Packet}). *)
let mem_iface t : Salam_engine.Engine.mem_iface =
  let backing = System.backing t.system in
  t.pop_done <- pop_done t;
  let read ~addr ~ty ~dst ~at ~k ~tag =
    Stats.incr t.s_loads;
    let i = Window_table.find t.stream_pops addr in
    if i >= 0 then begin
      let s = pop_slot t in
      t.pop_ty.(s) <- ty;
      if t.pop_dst.(s) != dst then t.pop_dst.(s) <- dst;
      t.pop_at.(s) <- at;
      if t.pop_k.(s) != k then t.pop_k.(s) <- k;
      t.pop_tag.(s) <- tag;
      Stream_buffer.pop (Window_table.target t.stream_pops i) ~size:(Ty.size_bytes ty)
        t.pop_raw.(s) 0 t.pop_done s
    end
    else begin
      let port = route t addr ~what:"load" in
      Memory.load_into backing ty addr dst at;
      Port.send port Packet.Read ~addr ~size:(Ty.size_bytes ty) k tag
    end
  in
  let write ~addr ~ty ~src ~at ~k ~tag =
    Stats.incr t.s_stores;
    let i = Window_table.find t.stream_pushes addr in
    if i >= 0 then begin
      Memory.encode_from ty src at t.push_raw 0;
      Stream_buffer.push (Window_table.target t.stream_pushes i) t.push_raw 0 (Ty.size_bytes ty)
        k tag
    end
    else begin
      let port = route t addr ~what:"store" in
      Memory.store_from backing ty addr src at;
      Port.send port Packet.Write ~addr ~size:(Ty.size_bytes ty) k tag
    end
  in
  { Salam_engine.Engine.read; write }
