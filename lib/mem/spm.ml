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

(* Placeholder for [service_thunk] until the first [schedule_service]; a
   top-level closure so the lazy-init check is a stable pointer compare.
   It also fills the completion table's unused slots. *)
let unset_thunk () = ()

(* Fills the packet table's unused slots. *)
let no_packet = Packet.make Packet.Read ~addr:0L ~size:0

let initial_slots = 16

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  queue : Slot_ring.t;  (** request slots, in arrival order *)
  mutable req_pkt : Packet.t array;  (** by slot *)
  mutable req_done : (unit -> unit) array;  (** by slot *)
  mutable req_bank : int array;  (** by slot *)
  mutable free : int array;  (** stack of unused slots *)
  mutable n_free : int;
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

(* A request lives in a slot of the per-slot tables from arrival to
   service; a free slot keeps its last packet and completion until it
   is reused, so queueing a request allocates nothing once the tables
   have grown to the peak queue depth. The tables are only grown with
   every slot in use, so the new slots become the free stack. *)
let grow_slots t =
  let n = Array.length t.req_bank in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.req_pkt <- extend t.req_pkt no_packet;
  t.req_done <- extend t.req_done unset_thunk;
  t.req_bank <- extend t.req_bank 0;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.n_free <- n

let alloc_slot t =
  if t.n_free = 0 then grow_slots t;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

let release_slot t s =
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

(* A request that cannot be serviced this cycle; [fresh] ones, waiting
   their first cycle, count as a conflict once. *)
let delay t s ~fresh ~bank_busy =
  if fresh then begin
    Stats.incr t.s_conflicts;
    emit t Trace.Spm_conflict ~detail:(if bank_busy then "bank" else "port") t.req_pkt.(s)
      ~bank:t.req_bank.(s)
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
  let n = Slot_ring.length q in
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
    let s = Slot_ring.get q !i in
    let pkt = t.req_pkt.(s) in
    (match pkt.Packet.op with
    | Packet.Read -> decr reads_ahead
    | Packet.Write -> decr writes_ahead);
    let bank = t.req_bank.(s) in
    let port_ok =
      match pkt.Packet.op with Packet.Read -> !reads_left > 0 | Packet.Write -> !writes_left > 0
    in
    if port_ok && not banks_busy.(bank) then begin
      banks_busy.(bank) <- true;
      decr free_banks;
      (match pkt.Packet.op with
      | Packet.Read ->
          decr reads_left;
          t.queued_reads <- t.queued_reads - 1;
          Stats.incr t.s_reads
      | Packet.Write ->
          decr writes_left;
          t.queued_writes <- t.queued_writes - 1;
          Stats.incr t.s_writes);
      emit t Trace.Spm_access
        ~detail:(match pkt.Packet.op with Packet.Read -> "read" | Packet.Write -> "write")
        pkt ~bank;
      Clock.schedule_cycles t.clock ~cycles:t.cfg.latency t.req_done.(s);
      release_slot t s
    end
    else begin
      delay t s ~fresh:(!i >= first_fresh) ~bank_busy:banks_busy.(bank);
      Slot_ring.set q !kept s;
      incr kept
    end;
    incr i
  done;
  for j = max !i first_fresh to n - 1 do
    let s = Slot_ring.get q j in
    delay t s ~fresh:true ~bank_busy:banks_busy.(t.req_bank.(s))
  done;
  let serviced = !i - !kept in
  if serviced > 0 then begin
    for j = !kept - 1 downto 0 do
      Slot_ring.set q (j + serviced) (Slot_ring.get q j)
    done;
    Slot_ring.drop_front q serviced
  end;
  if not (Slot_ring.is_empty q) then schedule_service t ~cycles:1

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
      queue = Slot_ring.create ~capacity:initial_slots ();
      req_pkt = Array.make initial_slots no_packet;
      req_done = Array.make initial_slots unset_thunk;
      req_bank = Array.make initial_slots 0;
      free = Array.init initial_slots (fun i -> initial_slots - 1 - i);
      n_free = initial_slots;
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
    let s = alloc_slot t in
    t.req_pkt.(s) <- pkt;
    t.req_done.(s) <- on_complete;
    t.req_bank.(s) <- bank_of t pkt.Packet.addr;
    Slot_ring.push_back t.queue s;
    t.fresh <- t.fresh + 1;
    (match pkt.Packet.op with
    | Packet.Read -> t.queued_reads <- t.queued_reads + 1
    | Packet.Write -> t.queued_writes <- t.queued_writes + 1);
    schedule_service t ~cycles:0
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false

let reads t = int_of_float (Stats.value t.s_reads)

let writes t = int_of_float (Stats.value t.s_writes)

(* --- checkpointing ----------------------------------------------------- *)

(* The SPM holds no data — contents live in the shared backing memory —
   so its section records layout identity only. Timing knobs (ports,
   banks, latency) are deliberately absent: one snapshot must serve many
   DSE points that differ only in timing configuration. *)
let quiesce t ~what =
  if not (Slot_ring.is_empty t.queue) then
    raise
      (Checkpoint.Invalid
         (Printf.sprintf "%s: %s with %d request(s) in flight" t.cfg.name what
            (Slot_ring.length t.queue)))

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

let cacti t = t.cacti
