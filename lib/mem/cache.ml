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
  mutable tag : int64;
  mutable last_use : int;
  mutable reserved : bool;
}

type mshr = { line_addr : int64; mutable waiters : (Packet.op * (unit -> unit)) list }

type pending = { pkt : Packet.t; on_complete : unit -> unit }

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  cfg : config;
  sets : int;
  lines : line array array; (* [set].[way] *)
  lower : Port.t;
  mutable mshr_list : mshr list;
  queue : pending Queue.t; (* waiting for a lookup port or an MSHR *)
  mutable service_scheduled : bool;
  mutable use_clock : int;
  cacti : Salam_hw.Cacti_lite.result;
  s_hits : Stats.scalar;
  s_misses : Stats.scalar;
  s_writebacks : Stats.scalar;
  s_fragments : Stats.scalar;
  mutable port : Port.t option;
}

let default_config ~name ~size =
  { name; size; line_bytes = 64; ways = 4; hit_latency = 2; mshrs = 8; lookup_ports = 2 }

let line_addr t addr =
  Int64.mul
    (Int64.div addr (Int64.of_int t.cfg.line_bytes))
    (Int64.of_int t.cfg.line_bytes)

let set_index t laddr =
  Int64.to_int (Int64.rem (Int64.div laddr (Int64.of_int t.cfg.line_bytes)) (Int64.of_int t.sets))

let touch t line =
  t.use_clock <- t.use_clock + 1;
  line.last_use <- t.use_clock

let find_line t laddr =
  let set = t.lines.(set_index t laddr) in
  let n = Array.length set in
  let rec go i =
    if i >= n then None
    else
      let l = set.(i) in
      if l.valid && Int64.equal l.tag laddr then Some l else go (i + 1)
  in
  go 0

(* Victim for a fill: invalid ways first, else LRU — never a reserved
   way (its own fill is in flight). [None] when every way is reserved. *)
let victim t laddr =
  let set = t.lines.(set_index t laddr) in
  let best = ref None in
  Array.iter
    (fun l ->
      if not l.reserved then
        match !best with
        | None -> best := Some l
        | Some b ->
            if not l.valid then (if b.valid then best := Some l)
            else if b.valid && l.last_use < b.last_use then best := Some l)
    set;
  !best

let rec service t =
  t.service_scheduled <- false;
  let lookups_left = ref t.cfg.lookup_ports in
  let still_waiting = Queue.create () in
  Queue.iter
    (fun p ->
      if !lookups_left > 0 && try_lookup t p then decr lookups_left
      else Queue.add p still_waiting)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer still_waiting t.queue;
  if not (Queue.is_empty t.queue) then schedule_service t

and schedule_service t =
  if not t.service_scheduled then begin
    t.service_scheduled <- true;
    Clock.schedule_cycles t.clock ~cycles:1 (fun () -> service t)
  end

(* a call site whose payload allocates tests this first *)
and traces t cat = match t.tr with Some tr -> Trace.wants tr cat | None -> false

(* Returns true when the request was accepted (hit, new MSHR, or
   piggyback); false when it must retry (MSHRs exhausted). *)
and emit_access t cat ~detail (pkt : Packet.t) extra =
  match t.tr with
  | Some tr when Trace.wants tr cat ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name ~cat ~detail
        ([
           ("addr", Trace.I pkt.Packet.addr);
           ("size", Trace.I (Int64.of_int pkt.Packet.size));
         ]
        @ extra)
  | Some _ | None -> ()

and try_lookup t (p : pending) =
  let laddr = line_addr t p.pkt.Packet.addr in
  match find_line t laddr with
  | Some line ->
      Stats.incr t.s_hits;
      emit_access t Trace.Cache_hit
        ~detail:(if Packet.is_write p.pkt then "write" else "read")
        p.pkt [];
      touch t line;
      if Packet.is_write p.pkt then line.dirty <- true;
      Clock.schedule_cycles t.clock ~cycles:t.cfg.hit_latency p.on_complete;
      true
  | None -> (
      match List.find_opt (fun m -> Int64.equal m.line_addr laddr) t.mshr_list with
      | Some m ->
          Stats.incr t.s_misses;
          if traces t Trace.Cache_miss then
            emit_access t Trace.Cache_miss ~detail:"piggyback" p.pkt [ ("line", Trace.I laddr) ];
          m.waiters <- (p.pkt.Packet.op, p.on_complete) :: m.waiters;
          true
      | None ->
          if List.length t.mshr_list >= t.cfg.mshrs then false
          else
            (* Pick the victim before committing to the miss: with every
               way in the set reserved by in-flight fills there is nowhere
               to put the line, so the request stays queued and retries
               once a fill completes. *)
            match victim t laddr with
            | None -> false
            | Some v ->
                Stats.incr t.s_misses;
                if traces t Trace.Cache_miss then
                  emit_access t Trace.Cache_miss
                    ~detail:(if Packet.is_write p.pkt then "write" else "read")
                    p.pkt
                    [ ("line", Trace.I laddr) ];
                let m = { line_addr = laddr; waiters = [ (p.pkt.Packet.op, p.on_complete) ] } in
                t.mshr_list <- m :: t.mshr_list;
                (if v.valid then
                   match t.tr with
                   | Some tr when Trace.wants tr Trace.Cache_evict ->
                       Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
                         ~cat:Trace.Cache_evict
                         ~detail:(if v.dirty then "dirty" else "clean")
                         [ ("line", Trace.I v.tag) ]
                   | Some _ | None -> ());
                if v.valid && v.dirty then begin
                  Stats.incr t.s_writebacks;
                  let wb = Packet.make Packet.Write ~addr:v.tag ~size:t.cfg.line_bytes in
                  Port.send t.lower wb ~on_complete:(fun () -> ())
                end;
                v.valid <- false;
                v.dirty <- false;
                v.reserved <- true;
                let fetch = Packet.make Packet.Read ~addr:laddr ~size:t.cfg.line_bytes in
                Port.send t.lower fetch ~on_complete:(fun () ->
                    (match t.tr with
                    | Some tr when Trace.wants tr Trace.Cache_fill ->
                        Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.cfg.name
                          ~cat:Trace.Cache_fill ~detail:"-"
                          [ ("line", Trace.I laddr) ]
                    | Some _ | None -> ());
                    v.reserved <- false;
                    v.valid <- true;
                    v.tag <- laddr;
                    touch t v;
                    t.mshr_list <- List.filter (fun m' -> m' != m) t.mshr_list;
                    List.iter
                      (fun (op, k) ->
                        if op = Packet.Write then v.dirty <- true;
                        Clock.schedule_cycles t.clock ~cycles:t.cfg.hit_latency k)
                      (List.rev m.waiters);
                    (* an MSHR (and a reserved way) freed: blocked
                       requests may proceed *)
                    if not (Queue.is_empty t.queue) then schedule_service t);
                true)

(* Split a request into line-sized fragments; complete when all do. *)
let split_fragments t (pkt : Packet.t) =
  let first = line_addr t pkt.Packet.addr in
  let last = line_addr t (Int64.add pkt.Packet.addr (Int64.of_int (pkt.Packet.size - 1))) in
  if Int64.equal first last then [ pkt ]
  else begin
    let rec go acc addr remaining =
      if remaining <= 0 then List.rev acc
      else begin
        let line_end = Int64.add (line_addr t addr) (Int64.of_int t.cfg.line_bytes) in
        let chunk = min remaining (Int64.to_int (Int64.sub line_end addr)) in
        go (Packet.make pkt.Packet.op ~addr ~size:chunk :: acc) (Int64.add addr (Int64.of_int chunk))
          (remaining - chunk)
      end
    in
    go [] pkt.Packet.addr pkt.Packet.size
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
  let t =
    {
      kernel;
      clock;
      tr = Kernel.trace kernel;
      cfg;
      sets;
      lines =
        Array.init sets (fun _ ->
            Array.init cfg.ways (fun _ ->
                { valid = false; dirty = false; tag = 0L; last_use = 0; reserved = false }));
      lower;
      mshr_list = [];
      queue = Queue.create ();
      service_scheduled = false;
      use_clock = 0;
      cacti;
      s_hits = Stats.scalar group "hits";
      s_misses = Stats.scalar group "misses";
      s_writebacks = Stats.scalar group "writebacks";
      s_fragments = Stats.scalar group "fragments";
      port = None;
    }
  in
  let handler pkt ~on_complete =
    let frags = split_fragments t pkt in
    Stats.add t.s_fragments (float_of_int (List.length frags));
    let outstanding = ref (List.length frags) in
    let complete_one () =
      decr outstanding;
      if !outstanding = 0 then on_complete ()
    in
    List.iter
      (fun frag ->
        Queue.add { pkt = frag; on_complete = complete_one } t.queue)
      frags;
    (* service on the next edge so same-cycle arrivals share the port
       arbitration *)
    if not t.service_scheduled then begin
      t.service_scheduled <- true;
      Clock.schedule_cycles t.clock ~cycles:0 (fun () -> service t)
    end
  in
  t.port <- Some (Port.make ~name:cfg.name handler);
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
  if not (Queue.is_empty t.queue) then
    err "%s: %d request(s) still queued at completion" t.cfg.name (Queue.length t.queue);
  (match t.mshr_list with
  | [] -> ()
  | ms -> err "%s: %d MSHR(s) still outstanding at completion" t.cfg.name (List.length ms));
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

(* --- checkpointing ----------------------------------------------------- *)

(* Tags, LRU ordering and dirty bits are timing-derived state, not
   architectural: every store writes the backing memory immediately, so
   a flush loses no data. Snapshots therefore carry nothing for the
   cache — capture requires quiescence and restore simply goes cold.
   The cache geometry is a DSE axis, so no identity fields either. *)
let quiesce t ~what =
  let fail fmt = Printf.ksprintf (fun s -> raise (Checkpoint.Invalid s)) fmt in
  if not (Queue.is_empty t.queue) then
    fail "%s: %s with %d request(s) queued" t.cfg.name what (Queue.length t.queue);
  if t.mshr_list <> [] then
    fail "%s: %s with %d MSHR(s) outstanding" t.cfg.name what (List.length t.mshr_list);
  Array.iteri
    (fun si set ->
      Array.iter
        (fun l ->
          if l.reserved then fail "%s: %s with set %d way still reserved" t.cfg.name what si)
        set)
    t.lines

let checkpoint_agent t =
  {
    Checkpoint.agent_name = t.cfg.name;
    capture =
      (fun () ->
        quiesce t ~what:"checkpoint capture";
        []);
    restore =
      (fun _sec ->
        quiesce t ~what:"checkpoint restore";
        flush t);
  }

let energy_pj t =
  let accesses = Stats.value t.s_hits +. Stats.value t.s_misses in
  accesses *. t.cacti.Salam_hw.Cacti_lite.read_energy_pj

let leakage_mw t = t.cacti.Salam_hw.Cacti_lite.leakage_mw

let area_um2 t = t.cacti.Salam_hw.Cacti_lite.area_um2
