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

type stream_map = { s_base : int64; s_size : int; buffer : Stream_buffer.t }

type range = { r_base : int64; r_size : int; target : Port.t option  (** always [Some] *) }

type t = {
  system : System.t;
  iface_name : string;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  mmr_base : int64;
  mmr_words : int;
  mutable ranges : range list;
  mutable default : Port.t option;
  mutable stream_pops : stream_map list;
  mutable stream_pushes : stream_map list;
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
      ranges = [];
      default = None;
      stream_pops = [];
      stream_pushes = [];
      control_handlers = [];
      irq_handlers = [];
      mmr_port = None;
      s_loads = Stats.scalar group "loads";
      s_stores = Stats.scalar group "stores";
    }
  in
  (* MMR timing port: one interface-clock cycle per access; control
     writes fire the start logic after the write completes. *)
  let handler (pkt : Packet.t) ~on_complete =
    Clock.schedule_cycles clock ~cycles:1 (fun () ->
        on_complete ();
        if Packet.is_write pkt then begin
          let word = Int64.to_int (Int64.div (Int64.sub pkt.Packet.addr mmr_base) 8L) in
          (match t.tr with
          | Some tr when Trace.wants tr Trace.Mmr_write ->
              let value =
                Bits.to_int64 (Memory.load (System.backing system) Ty.I64 pkt.Packet.addr)
              in
              Trace.emit tr ~tick:(Kernel.now (System.kernel system)) ~comp:t.iface_name
                ~cat:Trace.Mmr_write ~detail:"bus"
                [ ("word", Trace.I (Int64.of_int word)); ("val", Trace.I value) ]
          | Some _ | None -> ());
          if word = Layout.control then begin
            let value = Bits.to_int64 (Memory.load (System.backing system) Ty.I64 pkt.Packet.addr) in
            List.iter (fun h -> h value) t.control_handlers
          end
        end)
  in
  t.mmr_port <- Some (Port.make ~name:(name ^ ".mmr") handler);
  (* MMR contents live in the backing store, so the section is layout
     identity only: a snapshot restored into an interface whose MMRs sit
     elsewhere would leave the engine reading stale control words. *)
  System.register_agent system
    {
      Salam_sim.Checkpoint.agent_name = name;
      capture =
        (fun () ->
          [
            ("mmr_base", Salam_sim.Checkpoint.Int mmr_base);
            ("mmr_words", Salam_sim.Checkpoint.Int (Int64.of_int mmr_words));
          ]);
      restore =
        (fun sec ->
          let expect field actual =
            let got = Salam_sim.Checkpoint.find_int sec field in
            if got <> actual then
              raise
                (Salam_sim.Checkpoint.Invalid
                   (Printf.sprintf "%s: snapshot %s %Ld does not match this system's %Ld" name
                      field got actual))
          in
          expect "mmr_base" mmr_base;
          expect "mmr_words" (Int64.of_int mmr_words));
    };
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
  t.ranges <- { r_base = base; r_size = size; target = Some target } :: t.ranges

let set_default_route t port = t.default <- Some port

let in_range ~base ~size addr =
  Int64.compare addr base >= 0 && Int64.compare addr (Int64.add base (Int64.of_int size)) < 0

let map_stream_pop t ~base ~size buffer =
  t.stream_pops <- { s_base = base; s_size = size; buffer } :: t.stream_pops

let map_stream_push t ~base ~size buffer =
  t.stream_pushes <- { s_base = base; s_size = size; buffer } :: t.stream_pushes

(* allocation-free route lookup for the per-access fast path: every
   answer is an option built at configuration time *)
let rec find_route addr default = function
  | [] -> default
  | r :: tl ->
      if in_range ~base:r.r_base ~size:r.r_size addr then r.target
      else find_route addr default tl

let route t addr = find_route addr t.default t.ranges

(* a stream's bytes as a value payload, and back, through a scratch
   memory so the byte layout is {!Memory}'s *)
let payload_of_bytes ty data dst at =
  let scratch = Memory.create ~size:16 in
  Memory.store_bytes scratch 8L data;
  Memory.load_into scratch ty 8L dst at

let bytes_of_payload ty src at =
  let scratch = Memory.create ~size:16 in
  Memory.store_from scratch ty 8L src at;
  Memory.load_bytes scratch 8L (Ty.size_bytes ty)

(* closure-free stream lookup for the per-access fast path *)
let rec find_stream addr = function
  | [] -> None
  | s :: tl -> if in_range ~base:s.s_base ~size:s.s_size addr then Some s else find_stream addr tl

let mem_iface t : Salam_engine.Engine.mem_iface =
  let backing = System.backing t.system in
  let read ~addr ~ty ~dst ~at ~on_done =
    Stats.incr t.s_loads;
    match find_stream addr t.stream_pops with
    | Some s ->
        Stream_buffer.pop s.buffer ~size:(Ty.size_bytes ty) ~on_data:(fun data ->
            payload_of_bytes ty data dst at;
            on_done ())
    | None -> (
        match route t addr with
        | Some port ->
            (* capture the value at issue; the timing response only
               releases dependants (see Packet's documentation) *)
            Memory.load_into backing ty addr dst at;
            let pkt = Packet.make Packet.Read ~addr ~size:(Ty.size_bytes ty) in
            Port.send port pkt ~on_complete:on_done
        | None -> invalid_arg (t.iface_name ^ ": no route for load address " ^ Int64.to_string addr))
  in
  let write ~addr ~ty ~src ~at ~on_done =
    Stats.incr t.s_stores;
    match find_stream addr t.stream_pushes with
    | Some s -> Stream_buffer.push s.buffer (bytes_of_payload ty src at) ~on_accepted:on_done
    | None -> (
        match route t addr with
        | Some port ->
            Memory.store_from backing ty addr src at;
            let pkt = Packet.make Packet.Write ~addr ~size:(Ty.size_bytes ty) in
            Port.send port pkt ~on_complete:on_done
        | None ->
            invalid_arg (t.iface_name ^ ": no route for store address " ^ Int64.to_string addr))
  in
  { Salam_engine.Engine.read; write }
