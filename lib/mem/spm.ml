open Salam_sim
module Trace = Salam_obs.Trace

type partitioning = Cyclic | Blocked

type config = {
  name : string;
  base : int64;
  size : int;
  banks : int;
  read_ports : int;
  write_ports : int;
  latency : int;
  word_bytes : int;
  partitioning : partitioning;
}

type pending = { pkt : Packet.t; on_complete : unit -> unit; mutable delayed : bool }

(* Placeholder for [service_thunk] until the first [schedule_service]; a
   top-level closure so the lazy-init check is a stable pointer compare. *)
let unset_thunk () = ()

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  queue : pending Deque.t;
  banks_busy : bool array;  (** scratch, cleared at each service pass *)
  mutable service_scheduled : bool;
  mutable service_thunk : unit -> unit;
      (** cached [fun () -> service t]; built on first use so every
          arbitration pass reuses one closure *)
  cacti : Salam_hw.Cacti_lite.result;
  s_reads : Stats.scalar;
  s_writes : Stats.scalar;
  s_conflicts : Stats.scalar;
  mutable port : Port.t option;
}

let default_config ~name ~base ~size =
  {
    name;
    base;
    size;
    banks = 2;
    read_ports = 2;
    write_ports = 1;
    latency = 1;
    word_bytes = 8;
    partitioning = Cyclic;
  }

let bank_of t addr =
  let off = Int64.to_int (Int64.sub addr t.cfg.base) in
  let word = off / t.cfg.word_bytes in
  match t.cfg.partitioning with
  | Cyclic -> word mod t.cfg.banks
  | Blocked ->
      let words_per_bank = max 1 (t.cfg.size / t.cfg.word_bytes / t.cfg.banks) in
      min (t.cfg.banks - 1) (word / words_per_bank)

let emit t cat ~detail (pkt : Packet.t) ~bank =
  match t.tr with
  | Some tr ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat ~detail
        [
          ("addr", Trace.I pkt.Packet.addr);
          ("size", Trace.I (Int64.of_int pkt.Packet.size));
          ("bank", Trace.I (Int64.of_int bank));
        ]
  | None -> ()

(* One arbitration pass. The pending deque is rotated in place — each
   entry is popped once and either serviced or pushed back — so survivors
   keep their arrival order and the pass allocates nothing. *)
let rec service t =
  t.service_scheduled <- false;
  let reads_left = ref t.cfg.read_ports in
  let writes_left = ref t.cfg.write_ports in
  let banks_busy = t.banks_busy in
  Array.fill banks_busy 0 (Array.length banks_busy) false;
  for _ = 1 to Deque.length t.queue do
    let p = Deque.pop_front t.queue in
    let bank = bank_of t p.pkt.Packet.addr in
    let port_ok =
      match p.pkt.Packet.op with Packet.Read -> !reads_left > 0 | Packet.Write -> !writes_left > 0
    in
    if port_ok && not banks_busy.(bank) then begin
      banks_busy.(bank) <- true;
      (match p.pkt.Packet.op with
      | Packet.Read ->
          decr reads_left;
          Stats.incr t.s_reads
      | Packet.Write ->
          decr writes_left;
          Stats.incr t.s_writes);
      emit t Trace.Spm_access
        ~detail:(match p.pkt.Packet.op with Packet.Read -> "read" | Packet.Write -> "write")
        p.pkt ~bank;
      Clock.schedule_cycles t.clock ~cycles:t.cfg.latency p.on_complete
    end
    else begin
      if not p.delayed then begin
        p.delayed <- true;
        Stats.incr t.s_conflicts;
        emit t Trace.Spm_conflict
          ~detail:(if banks_busy.(bank) then "bank" else "port")
          p.pkt ~bank
      end;
      Deque.push_back t.queue p
    end
  done;
  if not (Deque.is_empty t.queue) then schedule_service t ~cycles:1

and schedule_service t ~cycles =
  if not t.service_scheduled then begin
    t.service_scheduled <- true;
    if t.service_thunk == unset_thunk then t.service_thunk <- (fun () -> service t);
    Clock.schedule_cycles t.clock ~cycles t.service_thunk
  end

let create kernel clock stats cfg =
  if cfg.banks < 1 || cfg.read_ports < 1 || cfg.write_ports < 1 then
    invalid_arg "Spm.create: banks and ports must be at least 1";
  let group = Stats.group ~parent:stats cfg.name in
  let cacti =
    Salam_hw.Cacti_lite.evaluate
      {
        Salam_hw.Cacti_lite.capacity_bytes = cfg.size;
        word_bits = cfg.word_bytes * 8;
        read_ports = cfg.read_ports;
        write_ports = cfg.write_ports;
      }
  in
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      queue = Deque.create ();
      banks_busy = Array.make cfg.banks false;
      service_scheduled = false;
      service_thunk = unset_thunk;
      cacti;
      s_reads = Stats.scalar group "reads";
      s_writes = Stats.scalar group "writes";
      s_conflicts = Stats.scalar group "bank_conflicts";
      port = None;
    }
  in
  let handler pkt ~on_complete =
    let last = Int64.add pkt.Packet.addr (Int64.of_int pkt.Packet.size) in
    let limit = Int64.add cfg.base (Int64.of_int cfg.size) in
    if Int64.compare pkt.Packet.addr cfg.base < 0 || Int64.compare last limit > 0 then
      invalid_arg
        (Printf.sprintf "%s: access %Ld+%d outside [%Ld, %Ld)" cfg.name pkt.Packet.addr
           pkt.Packet.size cfg.base limit);
    Deque.push_back t.queue { pkt; on_complete; delayed = false };
    schedule_service t ~cycles:0
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false

let config t = t.cfg

let reads t = int_of_float (Stats.value t.s_reads)

let writes t = int_of_float (Stats.value t.s_writes)

let bank_conflicts t = int_of_float (Stats.value t.s_conflicts)

(* --- checkpointing ----------------------------------------------------- *)

(* The SPM holds no data — contents live in the shared backing memory —
   so its section records layout identity only. Timing knobs (ports,
   banks, latency) are deliberately absent: one snapshot must serve many
   DSE points that differ only in timing configuration. *)
let quiesce t ~what =
  if not (Deque.is_empty t.queue) then
    raise
      (Checkpoint.Invalid
         (Printf.sprintf "%s: %s with %d request(s) in flight" t.cfg.name what
            (Deque.length t.queue)))

let checkpoint_agent t =
  {
    Checkpoint.agent_name = t.cfg.name;
    capture =
      (fun () ->
        quiesce t ~what:"checkpoint capture";
        [
          ("base", Checkpoint.Int t.cfg.base);
          ("size", Checkpoint.Int (Int64.of_int t.cfg.size));
        ]);
    restore =
      (fun sec ->
        quiesce t ~what:"checkpoint restore";
        let expect field actual =
          let got = Checkpoint.find_int sec field in
          if got <> actual then
            raise
              (Checkpoint.Invalid
                 (Printf.sprintf "%s: snapshot %s %Ld does not match this system's %Ld"
                    t.cfg.name field got actual))
        in
        expect "base" t.cfg.base;
        expect "size" (Int64.of_int t.cfg.size));
  }

let energy_pj t =
  (Stats.value t.s_reads *. t.cacti.Salam_hw.Cacti_lite.read_energy_pj)
  +. (Stats.value t.s_writes *. t.cacti.Salam_hw.Cacti_lite.write_energy_pj)

let leakage_mw t = t.cacti.Salam_hw.Cacti_lite.leakage_mw

let area_um2 t = t.cacti.Salam_hw.Cacti_lite.area_um2
