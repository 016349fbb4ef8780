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

type pending = { pkt : Packet.t; on_complete : unit -> unit; bank : int }

(* Placeholder for [service_thunk] until the first [schedule_service]; a
   top-level closure so the lazy-init check is a stable pointer compare. *)
let unset_thunk () = ()

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  queue : pending Deque.t;  (** arrival order *)
  mutable fresh : int;
      (** arrivals since the last arbitration pass: the queue's suffix
          not yet delayed (every survivor of a pass has been) *)
  mutable queued_reads : int;
  mutable queued_writes : int;
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
  | Some tr when Trace.wants tr cat ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat ~detail
        [
          ("addr", Trace.I pkt.Packet.addr);
          ("size", Trace.I (Int64.of_int pkt.Packet.size));
          ("bank", Trace.I (Int64.of_int bank));
        ]
  | Some _ | None -> ()

(* A request that cannot be serviced this cycle; [fresh] ones, waiting
   their first cycle, count as a conflict once. *)
let delay t p ~fresh ~bank_busy =
  if fresh then begin
    Stats.incr t.s_conflicts;
    emit t Trace.Spm_conflict ~detail:(if bank_busy then "bank" else "port") p.pkt ~bank:p.bank
  end

(* One arbitration pass, in arrival order, at most one access per bank
   and within the read and write port budgets. Survivors keep their
   order: they are compacted in place toward the front of the visited
   prefix, which is then shifted over the serviced slots, so the pass
   allocates nothing. The pass stops once no unvisited request could be
   serviced: every bank is taken, or no port is left for any kind still
   queued. The rest of the queue then stays where it is, and only its
   fresh suffix is visited, to record the conflicts. *)
let rec service t =
  t.service_scheduled <- false;
  let q = t.queue in
  let n = Deque.length q in
  let first_fresh = n - t.fresh in
  t.fresh <- 0;
  let reads_left = ref t.cfg.read_ports in
  let writes_left = ref t.cfg.write_ports in
  let banks_busy = t.banks_busy in
  for b = 0 to Array.length banks_busy - 1 do
    banks_busy.(b) <- false
  done;
  let i = ref 0 in
  let kept = ref 0 in
  (* requests of each kind not yet visited *)
  let reads_ahead = ref t.queued_reads in
  let writes_ahead = ref t.queued_writes in
  let free_banks = ref (Array.length banks_busy) in
  while
    !free_banks > 0
    && ((!reads_left > 0 && !reads_ahead > 0) || (!writes_left > 0 && !writes_ahead > 0))
  do
    let p = Deque.get q !i in
    (match p.pkt.Packet.op with
    | Packet.Read -> decr reads_ahead
    | Packet.Write -> decr writes_ahead);
    let bank = p.bank in
    let port_ok =
      match p.pkt.Packet.op with Packet.Read -> !reads_left > 0 | Packet.Write -> !writes_left > 0
    in
    if port_ok && not banks_busy.(bank) then begin
      banks_busy.(bank) <- true;
      decr free_banks;
      (match p.pkt.Packet.op with
      | Packet.Read ->
          decr reads_left;
          t.queued_reads <- t.queued_reads - 1;
          Stats.incr t.s_reads
      | Packet.Write ->
          decr writes_left;
          t.queued_writes <- t.queued_writes - 1;
          Stats.incr t.s_writes);
      emit t Trace.Spm_access
        ~detail:(match p.pkt.Packet.op with Packet.Read -> "read" | Packet.Write -> "write")
        p.pkt ~bank;
      Clock.schedule_cycles t.clock ~cycles:t.cfg.latency p.on_complete
    end
    else begin
      delay t p ~fresh:(!i >= first_fresh) ~bank_busy:banks_busy.(bank);
      Deque.set q !kept p;
      incr kept
    end;
    incr i
  done;
  for j = max !i first_fresh to n - 1 do
    let p = Deque.get q j in
    delay t p ~fresh:true ~bank_busy:banks_busy.(p.bank)
  done;
  let serviced = !i - !kept in
  if serviced > 0 then begin
    for j = !kept - 1 downto 0 do
      Deque.set q (j + serviced) (Deque.get q j)
    done;
    Deque.drop_front q serviced
  end;
  if not (Deque.is_empty q) then schedule_service t ~cycles:1

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
      fresh = 0;
      queued_reads = 0;
      queued_writes = 0;
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
    Deque.push_back t.queue { pkt; on_complete; bank = bank_of t pkt.Packet.addr };
    t.fresh <- t.fresh + 1;
    (match pkt.Packet.op with
    | Packet.Read -> t.queued_reads <- t.queued_reads + 1
    | Packet.Write -> t.queued_writes <- t.queued_writes + 1);
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
