open Salam_sim
module Trace = Salam_obs.Trace

type config = {
  name : string;
  size : int;
  line_bytes : int;
  ways : int;
  hit_latency : int;
  mshrs : int;
  lookup_ports : int;
}

(* [reserved] marks a way whose fill is in flight: the victim of an
   outstanding miss. Reserved ways are invisible to victim selection, so
   two concurrent misses to the same set can never clobber each other's
   fill (they used to pick the same invalidated way). *)
type line = {
  mutable valid : bool;
  mutable dirty : bool;
  mutable tag : int;
  mutable last_use : int;
  mutable reserved : bool;
}

(* A request is split into line-sized fragments. The request keeps its
   slot in [reqs] until its last fragment completes; each fragment has
   a slot in [frags] whose completion is [frag_done] of the request's
   slot. Fragments wait for a lookup port in [queue] and, behind a
   miss, on their MSHR's waiter chain (linked through [f_next]), so
   nothing is allocated per request. *)
type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  sets : int;
  lines : line array array; (* [set].[way] *)
  lower : Port.t;
  reqs : Req_table.t;
  mutable req_left : int array;  (** by request slot: fragments not yet completed *)
  frags : Req_table.t;
  mutable f_next : int array;  (** by fragment slot: next waiter on the same MSHR *)
  queue : Slot_ring.t;  (** fragments waiting for a lookup port or an MSHR *)
  m_used : bool array;  (** MSHRs *)
  m_line : int array;
  m_victim : line array;  (** the reserved way the fill lands in *)
  m_head : int array;
  m_tail : int array;  (** waiter chain, in arrival order *)
  mutable n_mshrs : int;  (** MSHRs in use *)
  hits : Completion_queue.t;  (** fragments completing after [hit_latency] *)
  mutable frag_done : int -> unit;
  mutable frag_complete : int -> unit;
  mutable fill : int -> unit;  (** a line fill returns, tagged with its MSHR *)
  mutable service_scheduled : bool;
  mutable service_thunk : unit -> unit;
  mutable use_clock : int;
  cacti : Salam_hw.Cacti_lite.result;
  s_hits : Stats.scalar;
  s_misses : Stats.scalar;
  s_writebacks : Stats.scalar;
  s_fragments : Stats.scalar;
  s_array_reads : Stats.scalar;  (** 64-bit words, the unit of [cacti] *)
  s_array_writes : Stats.scalar;
  mutable port : Port.t option;
}

let default_config ~name ~size =
  { name; size; line_bytes = 64; ways = 4; hit_latency = 2; mshrs = 8; lookup_ports = 2 }

let line_addr t addr = addr / t.cfg.line_bytes * t.cfg.line_bytes

let set_index t laddr = laddr / t.cfg.line_bytes mod t.sets

let touch t line =
  t.use_clock <- t.use_clock + 1;
  line.last_use <- t.use_clock

(* the way of [set] from [i] on holding [laddr], or -1 (top-level
   recursion: a local one would allocate its closure per lookup) *)
let rec find_line set laddr i =
  if i >= Array.length set then -1
  else
    let l = set.(i) in
    if l.valid && l.tag = laddr then i else find_line set laddr (i + 1)

(* Victim for a fill: invalid ways first, else LRU — never a reserved
   way (its own fill is in flight). -1 when every way is reserved. *)
let victim set =
  let best = ref (-1) in
  for i = 0 to Array.length set - 1 do
    let l = set.(i) in
    if not l.reserved then
      if !best < 0 then best := i
      else
        let b = set.(!best) in
        if not l.valid then (if b.valid then best := i)
        else if b.valid && l.last_use < b.last_use then best := i
  done;
  !best

let rec find_mshr t laddr i =
  if i >= Array.length t.m_used then -1
  else if t.m_used.(i) && t.m_line.(i) = laddr then i
  else find_mshr t laddr (i + 1)

let rec free_mshr t i = if t.m_used.(i) then free_mshr t (i + 1) else i

let traces t cat = match t.tr with Some tr -> Trace.wants tr cat | None -> false

let emit_access t cat ~detail f extra =
  match t.tr with
  | Some tr when Trace.wants tr cat ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat ~detail
        ([
           ("addr", Trace.I (Int64.of_int t.frags.Req_table.addr.(f)));
           ("size", Trace.I (Int64.of_int t.frags.Req_table.size.(f)));
         ]
        @ extra)
  | Some _ | None -> ()

let is_write t f = t.frags.Req_table.op.(f) = Packet.Write

(* a hit, or a waiter its line's fill completes: one word of its kind *)
let count_word t f =
  if is_write t f then Stats.incr t.s_array_writes else Stats.incr t.s_array_reads

let line_words t = float_of_int (t.cfg.line_bytes / 8)

(* Hit completions staged in this pass are scheduled before anything
   else is, so that they keep their place in the event order. *)
let flush_hits t = Completion_queue.close t.hits ~cycles:t.cfg.hit_latency

let rec service t =
  t.service_scheduled <- false;
  let q = t.queue in
  let n = Slot_ring.length q in
  let lookups_left = ref t.cfg.lookup_ports in
  let i = ref 0 and kept = ref 0 in
  while !i < n && !lookups_left > 0 do
    let f = Slot_ring.get q !i in
    if try_lookup t f then decr lookups_left
    else begin
      Slot_ring.set q !kept f;
      incr kept
    end;
    incr i
  done;
  (* the fragments left behind keep their order ahead of the unvisited
     rest *)
  let taken = !i - !kept in
  if taken > 0 then begin
    for j = !kept - 1 downto 0 do
      Slot_ring.set q (j + taken) (Slot_ring.get q j)
    done;
    Slot_ring.drop_front q taken
  end;
  flush_hits t;
  if not (Slot_ring.is_empty q) then schedule_service t

and schedule_service t =
  if not t.service_scheduled then begin
    t.service_scheduled <- true;
    Clock.schedule_cycles t.clock ~cycles:1 t.service_thunk
  end

(* Returns true when the fragment was accepted (hit, new MSHR, or
   piggyback); false when it must retry (MSHRs exhausted, or every way
   of its set reserved). *)
and try_lookup t f =
  let addr = t.frags.Req_table.addr.(f) in
  let laddr = line_addr t addr in
  let set = t.lines.(set_index t laddr) in
  let way = find_line set laddr 0 in
  if way >= 0 then begin
    let line = set.(way) in
    Stats.incr t.s_hits;
    count_word t f;
    emit_access t Trace.Cache_hit ~detail:(if is_write t f then "write" else "read") f [];
    touch t line;
    if is_write t f then line.dirty <- true;
    Completion_queue.add t.hits t.frag_complete f;
    true
  end
  else
    let m = find_mshr t laddr 0 in
    if m >= 0 then begin
      Stats.incr t.s_misses;
      if traces t Trace.Cache_miss then
        emit_access t Trace.Cache_miss ~detail:"piggyback" f
          [ ("line", Trace.I (Int64.of_int laddr)) ];
      t.f_next.(f) <- -1;
      t.f_next.(t.m_tail.(m)) <- f;
      t.m_tail.(m) <- f;
      true
    end
    else if t.n_mshrs >= t.cfg.mshrs then false
    else
      (* Pick the victim before committing to the miss: with every way
         in the set reserved by in-flight fills there is nowhere to put
         the line, so the request stays queued and retries once a fill
         completes. *)
      let vi = victim set in
      if vi < 0 then false
      else begin
        let v = set.(vi) in
        Stats.incr t.s_misses;
        if traces t Trace.Cache_miss then
          emit_access t Trace.Cache_miss
            ~detail:(if is_write t f then "write" else "read")
            f
            [ ("line", Trace.I (Int64.of_int laddr)) ];
        let m = free_mshr t 0 in
        t.m_used.(m) <- true;
        t.n_mshrs <- t.n_mshrs + 1;
        t.m_line.(m) <- laddr;
        t.m_victim.(m) <- v;
        t.f_next.(f) <- -1;
        t.m_head.(m) <- f;
        t.m_tail.(m) <- f;
        (if v.valid then
           match t.tr with
           | Some tr when Trace.wants tr Trace.Cache_evict ->
               Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat:Trace.Cache_evict
                 ~detail:(if v.dirty then "dirty" else "clean")
                 [ ("line", Trace.I (Int64.of_int v.tag)) ]
           | Some _ | None -> ());
        flush_hits t;
        if v.valid && v.dirty then begin
          Stats.incr t.s_writebacks;
          Stats.add t.s_array_reads (line_words t);
          Port.send t.lower Packet.Write ~addr:v.tag ~size:t.cfg.line_bytes Port.no_completion 0
        end;
        v.valid <- false;
        v.dirty <- false;
        v.reserved <- true;
        Port.send t.lower Packet.Read ~addr:laddr ~size:t.cfg.line_bytes t.fill m;
        true
      end

(* the fill of MSHR [m] has returned: install the line and complete its
   waiters, in arrival order, after a hit latency *)
let fill t m =
  let laddr = t.m_line.(m) and v = t.m_victim.(m) in
  (match t.tr with
  | Some tr when Trace.wants tr Trace.Cache_fill ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat:Trace.Cache_fill ~detail:"-"
        [ ("line", Trace.I (Int64.of_int laddr)) ]
  | Some _ | None -> ());
  v.reserved <- false;
  v.valid <- true;
  v.tag <- laddr;
  touch t v;
  t.m_used.(m) <- false;
  t.n_mshrs <- t.n_mshrs - 1;
  Stats.add t.s_array_writes (line_words t);
  let f = ref t.m_head.(m) in
  while !f >= 0 do
    if is_write t !f then v.dirty <- true;
    count_word t !f;
    Completion_queue.add t.hits t.frag_complete !f;
    f := t.f_next.(!f)
  done;
  flush_hits t;
  (* an MSHR (and a reserved way) freed: blocked requests may proceed *)
  if not (Slot_ring.is_empty t.queue) then schedule_service t

let frag_done t r =
  let left = t.req_left.(r) - 1 in
  t.req_left.(r) <- left;
  if left = 0 then Req_table.complete t.reqs r

(* fragment [addr, addr + size) of request [r] joins the lookup queue *)
let add_frag t op r addr size =
  let f = Req_table.alloc t.frags op ~addr ~size t.frag_done r in
  if f >= Array.length t.f_next then
    t.f_next <- Slot_pool.fit t.frags.Req_table.slots t.f_next (-1);
  Slot_ring.push_back t.queue f

(* Split a request into line-sized fragments; it completes when all
   of them have. *)
let arrive t op ~addr ~size k tag =
  let r = Req_table.alloc t.reqs op ~addr ~size k tag in
  if r >= Array.length t.req_left then
    t.req_left <- Slot_pool.fit t.reqs.Req_table.slots t.req_left 0;
  let last = line_addr t (addr + size - 1) in
  let n =
    if line_addr t addr = last then begin
      add_frag t op r addr size;
      1
    end
    else begin
      let n = ref 0 and addr = ref addr and remaining = ref size in
      while !remaining > 0 do
        let line_end = line_addr t !addr + t.cfg.line_bytes in
        let chunk = if !remaining < line_end - !addr then !remaining else line_end - !addr in
        add_frag t op r !addr chunk;
        incr n;
        addr := !addr + chunk;
        remaining := !remaining - chunk
      done;
      !n
    end
  in
  Stats.add t.s_fragments (float_of_int n);
  t.req_left.(r) <- n;
  (* service on the next edge so same-cycle arrivals share the port
     arbitration *)
  if not t.service_scheduled then begin
    t.service_scheduled <- true;
    Clock.schedule_cycles t.clock ~cycles:0 t.service_thunk
  end

let create kernel clock stats cfg ~lower =
  if cfg.size mod (cfg.line_bytes * cfg.ways) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of line_bytes * ways";
  let sets = cfg.size / cfg.line_bytes / cfg.ways in
  let group = Stats.group ~parent:stats cfg.name in
  let cacti =
    Salam_hw.Cacti_lite.evaluate
      {
        Salam_hw.Cacti_lite.capacity_bytes = cfg.size;
        word_bits = 64;
        read_ports = cfg.lookup_ports;
        write_ports = 1;
      }
  in
  let new_line () = { valid = false; dirty = false; tag = 0; last_use = 0; reserved = false } in
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      sets;
      lines = Array.init sets (fun _ -> Array.init cfg.ways (fun _ -> new_line ()));
      lower;
      reqs = Req_table.create ();
      req_left = [||];
      frags = Req_table.create ();
      f_next = [||];
      queue = Slot_ring.create ~capacity:16 ();
      m_used = Array.make cfg.mshrs false;
      m_line = Array.make cfg.mshrs 0;
      m_victim = Array.init cfg.mshrs (fun _ -> new_line ());
      m_head = Array.make cfg.mshrs (-1);
      m_tail = Array.make cfg.mshrs (-1);
      n_mshrs = 0;
      hits = Completion_queue.create clock;
      frag_done = Port.no_completion;
      frag_complete = Port.no_completion;
      fill = Port.no_completion;
      service_scheduled = false;
      service_thunk = ignore;
      use_clock = 0;
      cacti;
      s_hits = Stats.scalar group "hits";
      s_misses = Stats.scalar group "misses";
      s_writebacks = Stats.scalar group "writebacks";
      s_fragments = Stats.scalar group "fragments";
      s_array_reads = Stats.scalar group "array_reads";
      s_array_writes = Stats.scalar group "array_writes";
      port = None;
    }
  in
  t.frag_done <- frag_done t;
  t.frag_complete <- Req_table.complete t.frags;
  t.fill <- fill t;
  t.service_thunk <- (fun () -> service t);
  t.port <- Some (Port.make ~name:cfg.name (arrive t));
  t

let port t = match t.port with Some p -> p | None -> assert false

let hits t = int_of_float (Stats.value t.s_hits)

let misses t = int_of_float (Stats.value t.s_misses)

let invariant_errors t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let h = hits t and m = misses t and f = int_of_float (Stats.value t.s_fragments) in
  if h + m <> f then
    err "%s: hits (%d) + misses (%d) <> fragments accepted (%d)" t.cfg.name h m f;
  if not (Slot_ring.is_empty t.queue) then
    err "%s: %d request(s) still queued at completion" t.cfg.name (Slot_ring.length t.queue);
  if t.n_mshrs > 0 then err "%s: %d MSHR(s) still outstanding at completion" t.cfg.name t.n_mshrs;
  Array.iteri
    (fun si set ->
      Array.iter
        (fun l -> if l.reserved then err "%s: set %d has a way still reserved" t.cfg.name si)
        set)
    t.lines;
  List.rev !errs

let flush t =
  Array.iter
    (fun set ->
      Array.iter
        (fun l ->
          l.valid <- false;
          l.dirty <- false;
          l.reserved <- false)
        set)
    t.lines

let cacti t = t.cacti

let reads t = int_of_float (Stats.value t.s_array_reads)

let writes t = int_of_float (Stats.value t.s_array_writes)
