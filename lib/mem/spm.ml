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

(* [n]'s base-2 logarithm when it is a power of two, else -1 *)
let log2 n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  if n < 1 then -1 else go 0

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  base : int;
  limit : int;  (** [base + size] *)
  words_per_bank : int;  (** [Blocked] partitioning *)
  reqs : Req_table.t;
  mutable req_bank : int array;  (** by slot *)
  mutable req_seq : int array;  (** by slot: arrival number *)
  word_shift : int;
  bank_mask : int;  (** [Cyclic] with power-of-two word size and bank count, else -1 *)
  q_head : int array;
  q_tail : int array;
      (** per (bank, kind), at [2 * bank] for reads and [2 * bank + 1]
          for writes: a FIFO of request slots in arrival order, linked
          through [req_next]; -1 when empty *)
  mutable req_next : int array;  (** by slot *)
  bank_queued : int array;  (** requests queued per bank *)
  active : int array;  (** the banks with a queued request, first [n_active] *)
  active_pos : int array;  (** by bank: its index in [active], or -1 *)
  mutable n_active : int;
  mutable next_seq : int;
  mutable fresh : int;
      (** arrivals since the last arbitration pass: the newest [fresh]
          arrival numbers, each counted as a conflict once if that pass
          leaves it queued *)
  mutable queued : int;
  picked : int array;  (** scratch: the slots one pass services *)
  cand : int array;  (** scratch: queue heads, when the ports bind *)
  banks_busy : bool array;  (** scratch, cleared before use *)
  done_q : Completion_queue.t;
  mutable service_scheduled : bool;
  mutable service_thunk : unit -> unit;
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
  if t.bank_mask >= 0 then ((addr - t.base) lsr t.word_shift) land t.bank_mask
  else
  let word = (addr - t.base) / t.cfg.word_bytes in
  match t.cfg.partitioning with
  | Cyclic -> word mod t.cfg.banks
  | Blocked ->
      let b = word / t.words_per_bank in
      if b < t.cfg.banks - 1 then b else t.cfg.banks - 1

let emit t cat ~detail s =
  match t.tr with
  | Some tr when Trace.wants tr cat ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat ~detail
        [
          ("addr", Trace.I (Int64.of_int t.reqs.Req_table.addr.(s)));
          ("size", Trace.I (Int64.of_int t.reqs.Req_table.size.(s)));
          ("bank", Trace.I (Int64.of_int t.req_bank.(s)));
        ]
  | Some _ | None -> ()

let[@inline] is_write t s = t.reqs.Req_table.op.(s) = Packet.Write

let[@inline] queue_of t s = (2 * t.req_bank.(s)) + if is_write t s then 1 else 0

(* the older head of a bank's two queues (the bank is active) *)
let older_head t b =
  let hr = t.q_head.(2 * b) and hw = t.q_head.((2 * b) + 1) in
  if hr < 0 then hw
  else if hw < 0 then hr
  else if t.req_seq.(hr) < t.req_seq.(hw) then hr
  else hw

(* sort [a.(0 .. n-1)] by arrival number; n is at most twice the bank
   count and usually a handful *)
let sort_by_seq t a n =
  for i = 1 to n - 1 do
    let s = a.(i) in
    let key = t.req_seq.(s) in
    let j = ref (i - 1) in
    while !j >= 0 && t.req_seq.(a.(!j)) > key do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- s
  done

(* The slots one pass services, into [picked] in arrival order; returns
   their count. The pass is the greedy scan in arrival order over every
   queued request: service a request when its bank is free and a port
   of its kind is left. Only queue heads can pass that scan (a request
   behind an older one of its bank and kind finds the bank taken or the
   port gone), and a head's eligibility only falls during a pass, so
   the scan services the oldest eligible head until no bank or port is
   left. When no port can run out — each bank's older head is taken,
   and those need no more read or write ports than there are — that is
   simply each active bank's older head; otherwise the heads are sorted
   and scanned. *)
let pick t =
  let reads = ref 0 and writes = ref 0 in
  for i = 0 to t.n_active - 1 do
    if is_write t (older_head t t.active.(i)) then incr writes else incr reads
  done;
  if !reads <= t.cfg.read_ports && !writes <= t.cfg.write_ports then begin
    for i = 0 to t.n_active - 1 do
      t.picked.(i) <- older_head t t.active.(i)
    done;
    sort_by_seq t t.picked t.n_active;
    t.n_active
  end
  else begin
    let n = ref 0 in
    for i = 0 to t.n_active - 1 do
      let b = t.active.(i) in
      t.banks_busy.(b) <- false;
      for kind = 0 to 1 do
        let h = t.q_head.((2 * b) + kind) in
        if h >= 0 then begin
          t.cand.(!n) <- h;
          incr n
        end
      done
    done;
    sort_by_seq t t.cand !n;
    let reads_left = ref t.cfg.read_ports and writes_left = ref t.cfg.write_ports in
    let picked = ref 0 in
    for i = 0 to !n - 1 do
      let s = t.cand.(i) in
      let b = t.req_bank.(s) in
      let w = is_write t s in
      if (not t.banks_busy.(b)) && if w then !writes_left > 0 else !reads_left > 0 then begin
        if w then decr writes_left else decr reads_left;
        t.banks_busy.(b) <- true;
        t.picked.(!picked) <- s;
        incr picked
      end
    done;
    !picked
  end

(* Conflict lines for a sink that wants them: replay the scan over every
   queued request in arrival order, before the pass dequeues anything.
   A fresh request left queued is a conflict on its bank when an older
   request of that bank was serviced, else on the ports; access lines
   go out in the same walk, so the two interleave in arrival order. *)
let trace_pass t ~first_fresh ~n_picked =
  let all = ref [] in
  Array.iter
    (fun h ->
      let rec chain s = if s >= 0 then (all := s :: !all; chain t.req_next.(s)) in
      chain h)
    t.q_head;
  let all = List.sort (fun a b -> compare t.req_seq.(a) t.req_seq.(b)) !all in
  Array.fill t.banks_busy 0 (Array.length t.banks_busy) false;
  let serviced s =
    let rec mem i = i < n_picked && (t.picked.(i) = s || mem (i + 1)) in
    mem 0
  in
  List.iter
    (fun s ->
      let bank = t.req_bank.(s) in
      if serviced s then begin
        emit t Trace.Spm_access ~detail:(if is_write t s then "write" else "read") s;
        t.banks_busy.(bank) <- true
      end
      else if t.req_seq.(s) >= first_fresh then
        emit t Trace.Spm_conflict ~detail:(if t.banks_busy.(bank) then "bank" else "port") s)
    all

let dequeue t s =
  (* [s] is its queue's head *)
  let q = queue_of t s in
  let nx = t.req_next.(s) in
  t.q_head.(q) <- nx;
  if nx < 0 then t.q_tail.(q) <- -1;
  t.queued <- t.queued - 1;
  let b = t.req_bank.(s) in
  let left = t.bank_queued.(b) - 1 in
  t.bank_queued.(b) <- left;
  if left = 0 then begin
    let i = t.active_pos.(b) in
    let last = t.active.(t.n_active - 1) in
    t.active.(i) <- last;
    t.active_pos.(last) <- i;
    t.active_pos.(b) <- -1;
    t.n_active <- t.n_active - 1
  end

(* One arbitration pass: at most one access per bank, within the read
   and write port budgets, oldest first (see [pick]). Its completions
   fall due together and share one event. A fresh arrival the pass
   leaves queued counts as one conflict; a request left queued again
   later is not counted again. *)
let rec service t =
  t.service_scheduled <- false;
  let first_fresh = t.next_seq - t.fresh in
  let fresh = t.fresh in
  t.fresh <- 0;
  let n = pick t in
  let traced = match t.tr with Some tr -> Trace.wants tr Trace.Spm_conflict | None -> false in
  if traced then trace_pass t ~first_fresh ~n_picked:n;
  let fresh_serviced = ref 0 in
  for i = 0 to n - 1 do
    let s = t.picked.(i) in
    if t.req_seq.(s) >= first_fresh then incr fresh_serviced;
    dequeue t s;
    if is_write t s then Stats.incr t.s_writes else Stats.incr t.s_reads;
    if not traced then emit t Trace.Spm_access ~detail:(if is_write t s then "write" else "read") s;
    Completion_queue.add t.done_q t.reqs.Req_table.k.(s) t.reqs.Req_table.tag.(s);
    Req_table.release t.reqs s
  done;
  let conflicts = fresh - !fresh_serviced in
  if conflicts > 0 then Stats.add t.s_conflicts (float_of_int conflicts);
  Completion_queue.close t.done_q ~cycles:t.cfg.latency;
  if t.queued > 0 then schedule_service t ~cycles:1

and schedule_service t ~cycles =
  if not t.service_scheduled then begin
    t.service_scheduled <- true;
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
  let base = Int64.to_int cfg.base in
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      base;
      limit = base + cfg.size;
      words_per_bank = max 1 (cfg.size / cfg.word_bytes / cfg.banks);
      word_shift = log2 cfg.word_bytes;
      bank_mask =
        (if cfg.partitioning = Cyclic && log2 cfg.word_bytes >= 0 && log2 cfg.banks >= 0 then
           cfg.banks - 1
         else -1);
      reqs = Req_table.create ();
      req_bank = [||];
      req_seq = [||];
      q_head = Array.make (2 * cfg.banks) (-1);
      q_tail = Array.make (2 * cfg.banks) (-1);
      req_next = [||];
      bank_queued = Array.make cfg.banks 0;
      active = Array.make cfg.banks 0;
      active_pos = Array.make cfg.banks (-1);
      n_active = 0;
      next_seq = 0;
      fresh = 0;
      queued = 0;
      picked = Array.make cfg.banks 0;
      cand = Array.make (2 * cfg.banks) 0;
      banks_busy = Array.make cfg.banks false;
      done_q = Completion_queue.create clock;
      service_scheduled = false;
      service_thunk = ignore;
      cacti;
      s_reads = Stats.scalar group "reads";
      s_writes = Stats.scalar group "writes";
      s_conflicts = Stats.scalar group "bank_conflicts";
      port = None;
    }
  in
  t.service_thunk <- (fun () -> service t);
  let handler op ~addr ~size k tag =
    if addr < t.base || addr + size > t.limit then
      invalid_arg
        (Printf.sprintf "%s: access %d+%d outside [%d, %d)" cfg.name addr size t.base t.limit);
    let s = Req_table.alloc t.reqs op ~addr ~size k tag in
    if s >= Array.length t.req_bank then begin
      let p = t.reqs.Req_table.slots in
      t.req_bank <- Slot_pool.fit p t.req_bank 0;
      t.req_seq <- Slot_pool.fit p t.req_seq 0;
      t.req_next <- Slot_pool.fit p t.req_next 0
    end;
    let b = bank_of t addr in
    t.req_bank.(s) <- b;
    t.req_seq.(s) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    let q = (2 * b) + match op with Packet.Read -> 0 | Packet.Write -> 1 in
    t.req_next.(s) <- -1;
    let tl = t.q_tail.(q) in
    if tl < 0 then t.q_head.(q) <- s else t.req_next.(tl) <- s;
    t.q_tail.(q) <- s;
    if t.bank_queued.(b) = 0 then begin
      t.active_pos.(b) <- t.n_active;
      t.active.(t.n_active) <- b;
      t.n_active <- t.n_active + 1
    end;
    t.bank_queued.(b) <- t.bank_queued.(b) + 1;
    t.queued <- t.queued + 1;
    t.fresh <- t.fresh + 1;
    schedule_service t ~cycles:0
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
  t

let port t = match t.port with Some p -> p | None -> assert false

let reads t = int_of_float (Stats.value t.s_reads)

let writes t = int_of_float (Stats.value t.s_writes)

let cacti t = t.cacti
