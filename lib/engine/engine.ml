open Salam_ir
open Salam_hw
open Salam_sim
module Datapath = Salam_cdfg.Datapath
module Trace = Salam_obs.Trace

type mode = Dynamic | Compiled

let mode_to_string = function Dynamic -> "dynamic" | Compiled -> "compiled"

type config = {
  read_queue_depth : int;
  write_queue_depth : int;
  reservation_slots : int;
  disambiguate_memory : bool;
  enforce_waw : bool;
  enforce_war : bool;
  check : bool;
  mode : mode;
}

let default_config =
  {
    read_queue_depth = 64;
    write_queue_depth = 64;
    reservation_slots = 256;
    disambiguate_memory = true;
    enforce_waw = true;
    enforce_war = true;
    check = false;
    mode = Compiled;
  }

(* Placeholder for [tick_thunk] until the first [start]; a top-level
   closure ([ignore] is a primitive and eta-expands to a fresh closure
   per use site). *)
let unset_thunk () = ()

(* likewise for [k_commit] *)
let unset_k (_ : int) = ()

exception Invariant_violation of string

exception Runtime_error of string

type mem_iface = {
  read : addr:int -> ty:Ty.t -> dst:Bytes.t -> at:int -> k:(int -> unit) -> tag:int -> unit;
  write : addr:int -> ty:Ty.t -> src:Bytes.t -> at:int -> k:(int -> unit) -> tag:int -> unit;
}

type run_stats = {
  cycles : int64;
  dynamic_instructions : int;
  loads_issued : int;
  stores_issued : int;
  active_cycles : int;
  issue_cycles : int;
  stall_cycles : int;
  stall_load_only : int;
  stall_load_compute : int;
  stall_load_store_compute : int;
  stall_other : int;
  cycles_with_load : int;
  cycles_with_store : int;
  cycles_with_load_and_store : int;
  cycles_with_fp : int;
  issued_fp : int;
  issued_int : int;
  issued_mem : int;
  issued_other : int;
  fu_busy_integral : (Fu.cls * float) list;
  issued_by_class : (Fu.cls * int) list;
  dynamic_fu_energy_pj : float;
  dynamic_reg_energy_pj : float;
}

type dstate = Waiting | Issued | Done

(* an import waiting for reservation room: a compiled edge, or (dynamic
   mode) a (label, pred) pair *)
type pending = No_import | Pending_edge of Schedule.edge | Pending_label of string * string

let nil = Slot_list.nil

(* Raw 64-bit value slots (see {!Bits.Payload}). The primitives compile
   to one load or store, so a payload moves between slots without being
   boxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Static per-node facts, precomputed once at [create] and indexed by the
   dense [n_id]: importing a block re-derives none of this per dynamic
   instance. *)
type sinfo = {
  si_sources : Ast.value array;  (** operand sources (phis resolve per-pred) *)
  si_def : Ast.var option;
  si_mem_size : int;
  si_mem_ty : Ty.t;
  si_is_load : bool;
  si_is_store : bool;
  si_has_result : bool;  (** writes a result slot: traced as [val] at writeback *)
  si_res : int;  (** [8 * n_ops]: the result slot's offset in an instance's [vals] *)
  si_fu_ix : int;  (** [Fu.index] of the node's class, or -1 *)
  si_def_reg : int;  (** the register it defines, or -1 *)
  si_def_ty : Ty.t;  (** that register's type (Void for none) *)
}

(* A dynamic instruction. Scheduling is wake-up driven: [missing] counts
   value operands still in flight and [hazards] counts pending WAW/WAR
   predecessors; when both reach zero the instruction enters a ready
   list and is never re-examined while blocked. The reverse edges (the
   [dep_head] chain for values delivered at commit, [waw_dep] and the
   per-register WAR queues for hazards released at issue) deliver the
   wake-ups.

   Every instance has a stable [id], its slot in the engine's instance
   table, and every link to another instance is that slot as an int
   ([nil] for none). Values are raw payloads in [vals]. So no store on
   the per-instruction path writes a pointer into a long-lived record:
   OCaml 5's write barrier never runs there. In compiled mode retired
   instances return to a per-node pool and are replayed with their
   arrays and continuation intact, so steady-state imports allocate
   nothing (see [recycle]). *)
type dyn = {
  id : int;  (** slot in the instance table *)
  mutable seq : int;  (** program order within one invocation *)
  node : Datapath.node;
  vals : Bytes.t;
      (** payloads: operand [i] at byte [8 * i], then the result, then
          (memory ops) the resolved address; see [res_off]/[addr_off] *)
  producers : int array;
      (** per operand: the in-flight producer until its value arrives,
          else [nil] *)
  mutable missing : int;
  mutable hazards : int;  (** unreleased WAW and WAR hazards, at most one of each *)
  mutable st : dstate;
  mutable waw_dep : int;  (** the next instance of this node, if it waits on this one *)
  mutable war_next : int;  (** next writer in its register's WAR queue *)
  mutable addr_known : bool;
  mem_size : int;
  mem_ty : Ty.t;  (** Void for non-memory ops *)
  info : sinfo;  (** the node's static facts *)
  is_load : bool;
  is_store : bool;
  mutable is_device : bool;  (** lies in an ordered (stream) range *)
  mutable taken : bool;  (** a conditional branch's outcome, read at its commit *)
  reader_regs : int array;
      (** WAR reader links: the register of each of the first
          [n_readers] register operands, counted in [readers_waiting]
          from import to issue *)
  mutable n_readers : int;
  mutable war_older : int;
      (** while queued on a WAR hazard: Waiting readers of the register
          imported before this writer *)
  mutable pool_next : int;
      (** free-list link: the node's pool (compiled mode) or the free
          slots (dynamic mode) *)
  mutable retired : bool;  (** popped from the reservation while still in flight *)
  mutable wheel_next : int;
      (** next instance in its completion-wheel bucket (see [t.wheel_head]) *)
  mutable ix_prev : int;
  mutable ix_next : int;  (** links in an ordering-index bucket (see [t.ix_head]) *)
  (* value dependents as an intrusive chain: the producer's
     [dep_head]/[dep_head_slot] name the first (consumer, slot) link;
     each consumer chains onward through its own [dep_next]/[dep_slot]
     at that slot. Links die when the producer commits; stale per-slot
     entries are overwritten at the consumer's next registration and
     never read in between. *)
  mutable dep_head : int;
  mutable dep_head_slot : int;
  dep_next : int array;  (** parallel to [producers] *)
  dep_slot : int array;  (** parallel to [producers] *)
}

let[@inline] n_ops d = Array.length d.producers

let[@inline] res_off d = d.info.si_res

let[@inline] addr_off d = 8 * (n_ops d + 1)

let[@inline] operand d i = get64 d.vals (8 * i)

let[@inline] addr_of d = Int64.to_int (get64 d.vals (addr_off d))

(* ordering-index buckets: a power of two, indexed by 8-byte word; small
   enough that the two bucket arrays of an engine are minor-heap blocks *)
let ix_buckets = 128

let[@inline] bucket_of addr = (addr lsr 3) land (ix_buckets - 1)


type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  dp : Datapath.t;
  cfg : config;
  mem : mem_iface;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  tr_comp : string;
  intrinsics : (string * (Bits.t list -> Bits.t)) list;
  block_nodes : (string, Datapath.node array) Hashtbl.t;
  infos : sinfo array;  (** indexed by [Datapath.n_id] *)
  specs : Profile.fu_spec array;  (** indexed by [Fu.index] *)
  fu_fp : bool array;  (** indexed by [Fu.index]: a floating-point class *)
  write_pj : float array;
      (** by [Datapath.n_id]: the register-file write energy of the
          node's result, charged at commit *)
  fu_units : int array;  (** indexed by [Fu.index] *)
  regs : Bytes.t;  (** register file: the payload of register [id] at byte [8 * id] *)
  mutable insts : dyn array;  (** the instance table, by slot; [n_insts] in use *)
  mutable n_insts : int;
  pools : int array;
      (** compiled mode, per static node ([Datapath.n_id]): free list of
          retired instances, linked through [pool_next] *)
  mutable free_slots : int;
      (** dynamic mode: free list of the slots of retired instances,
          linked through their [pool_next] *)
  reservation : Slot_ring.t;
      (** program order; holds every imported-not-yet-retired slot.
          Issued entries are skipped during walks and retired lazily
          from the front. *)
  mutable waiting_count : int;  (** reservation entries still Waiting *)
  ready : Slot_list.t;
      (** seq-ordered wake-up queue: Waiting instances with no pending
          value or hazard dependencies. Only these are scanned by
          [tick]. In [Compiled] mode this holds only the non-memory ops;
          loads and stores go to [ready_l]/[ready_s]. *)
  sched : Schedule.t option;  (** [Some] iff [config.mode = Compiled] *)
  ready_l : Slot_list.t;  (** compiled mode: ready loads, seq-ordered *)
  ready_s : Slot_list.t;  (** compiled mode: ready stores, seq-ordered *)
  (* compiled-mode scan state: one cursor per ready list, live only while
     [scanning]. A wake-up landing before a cursor rewinds it so the
     merge still examines the slot this pass (see [try_wake]). *)
  mutable scanning : bool;
  mutable scan_c : int;
  mutable scan_l : int;
  mutable scan_s : int;
  live_mem : Slot_list.t;
      (** Waiting (imported, not yet issued) memory ops in program order.
          Issued ops can never conflict, so they leave at issue time —
          ordering walks only ever traverse genuine candidates. *)
  (* The ordering index over [live_mem] (see [index_live]). A live op
     with an unknown address is on the unresolved chain of its kind; a
     resolved one in the bucket of the 8-byte word its address lies in,
     among the loads' or the stores' buckets, unless it crosses a word,
     when it is only counted in [straddling]. All chains link through
     [ix_prev]/[ix_next]. *)
  unres_head : int array;
  unres_tail : int array;
      (** the unresolved chains, loads at 0 and stores at 1, in program
          order *)
  mutable straddling : int;
  ix_loads : int array;
  ix_stores : int array;  (** word buckets, unordered chains *)
  live_device : Slot_list.t;  (** live device ops, in program order *)
  last_writer : int array;  (** indexed by register id; [nil] once committed *)
  last_instance : int array;  (** indexed by static node id *)
  readers_waiting : int array;
      (** per register: operand occurrences of it in Waiting
          instructions (the WAR readers) *)
  war_head : int array;
  war_tail : int array;
      (** per register: writers waiting for older readers to issue, a
          seq-ordered FIFO linked through [war_next] *)
  is_param : bool array;  (** indexed by register id *)
  mutable ordered_ranges : (int64 * int) list;
  fu_held : int array;  (** unpipelined units held until commit, by [Fu.index] *)
  in_flight : int array;  (** issued-not-committed compute, by [Fu.index] *)
  scratch_issued : int array;
      (** per-cycle issue counts by [Fu.index]; cleared by the first
          tick of each cycle, so FU caps hold across every tick a cycle
          runs *)
  mutable scratch_dirty : bool;  (** [scratch_issued] holds a non-zero count *)
  fu_peak : int array;
      (** by [Fu.index]: the most units of the class in use at any FU
          issue, that issue included ({!units_in_use} + 1) *)
  mutable cap_refused : bool;
      (** this tick's scan refused an FU op by its cap after the class
          issued: the next cycle's tick, its counts cleared, could issue
          it *)
  wheel_head : int array;
  wheel_tail : int array;
      (** the completion wheel: multi-cycle FU ops in flight, bucket
          [c land wheel_mask] holding those that commit at cycle [c], a
          FIFO in issue order linked through [wheel_next]. More buckets
          than the longest node latency, a power of two, so a bucket is
          drained before it can be reused (see [tick]). *)
  wheel_mask : int;
  mutable reads_outstanding : int;
  mutable writes_outstanding : int;
  mutable inflight_total : int;
  mutable next_seq : int;
  mutable pending_import : pending;
  phi_prev : int array;
  phi_inst : int array;
      (** scratch for an import's leading phis: each one's WAW predecessor
          and new instance, between operand capture and registration *)
  mutable is_running : bool;
  mutable ret_committed : bool;
  mutable ret_value : Bits.t option;
  mutable on_finish : (Bits.t option -> unit) option;
  mutable tick_scheduled : bool;
      (** a tick is pending: queued, reserved (inside a tick) or asleep *)
  (* Virtual ticks (see [sleep]). A [schedule_tick] inside a tick only
     reserves the tick's insertion number; at the end of the tick the
     engine queues it, or, if it provably changes nothing, leaves it to
     the kernel as the head of a chain of virtual ticks. *)
  sleeper : Kernel.sleeper;
  period : int;  (** the clock period in ticks *)
  may_sleep : bool;
      (** check mode is off and no sink records [Engine_stall] or
          [Fu_occupancy], the lines a quiet cycle emits *)
  mutable in_tick : bool;
  mutable tick_cycle : int;  (** the cycle of the tick running *)
  mutable next_cycle : int;  (** the cycle of the pending tick *)
  mutable res_seq : int;  (** its reserved insertion number, inside a tick *)
  mutable imported : bool;  (** a block was imported after the tick's scan *)
  mutable asleep : bool;
  mutable sleep_flags : int;  (** the stall flags every slept-through tick computes *)
  mutable wake_cycle : int;  (** the next non-empty wheel bucket's cycle, or [max_int] *)
  mutable shadow : int;
      (** check mode: the stall flags of the next tick, predicted quiet,
          or -1 *)
  mutable start_cycle : int;
  (* per-cycle accumulation, finalised when the clock advances (several
     tick events can run within one cycle due to zero-latency commits) *)
  mutable cur_cycle : int;
  mutable cyc_active : bool;
  mutable cyc_issued : bool;
  mutable cyc_load : bool;
  mutable cyc_store : bool;
  mutable cyc_fp : bool;
  mutable cyc_wait_load : bool;
  mutable cyc_wait_store : bool;
  mutable cyc_wait_compute : bool;
  (* accumulated statistics: scalars in the [Stats] group given to
     [create], named after the [run_stats] fields they feed *)
  s_cycles : Stats.scalar;
  s_dyn : Stats.scalar;
  s_loads : Stats.scalar;
  s_stores : Stats.scalar;
  s_active : Stats.scalar;
  s_issue_cycles : Stats.scalar;
  s_stall : Stats.scalar;
  s_stall_load : Stats.scalar;
  s_stall_load_compute : Stats.scalar;
  s_stall_lsc : Stats.scalar;
  s_stall_other : Stats.scalar;
  s_cyc_load : Stats.scalar;
  s_cyc_store : Stats.scalar;
  s_cyc_both : Stats.scalar;
  s_cyc_fp : Stats.scalar;
  s_issued_fp : Stats.scalar;
  s_issued_int : Stats.scalar;
  s_issued_mem : Stats.scalar;
  s_issued_other : Stats.scalar;
  s_fu_energy : Stats.scalar;  (** pJ *)
  s_reg_energy : Stats.scalar;  (** pJ *)
  s_issued_by_class : Stats.scalar array;  (** by [Fu.index] *)
  s_busy_integral : Stats.scalar array;  (** by [Fu.index] *)
  (* stall-classification counters over the Waiting entries, kept current
     at operand capture, delivery and issue (see [stall_flags]) *)
  mutable u_load : int;  (** undelivered operand slots produced by a load *)
  mutable u_comp : int;  (** undelivered operand slots produced by a non-memory op *)
  mutable r_load : int;  (** loads with every operand delivered *)
  mutable r_store : int;  (** stores with every operand delivered *)
  mutable r_fu : int;  (** non-memory FU ops with every operand delivered *)
  mutable tick_thunk : unit -> unit;
      (** the [tick] closure, allocated once — [schedule_tick] runs every
          active cycle *)
  mutable k_commit : int -> unit;
      (** [commit] of the instance in a slot: the completion handler of
          every memory request, whose tag is the instance's slot *)
}

let per_cycle_categories = [ Trace.Engine_stall; Trace.Fu_occupancy ]

(* no closure: a sink that records nothing costs what no sink costs *)
let rec wants_any sink = function
  | [] -> false
  | cat :: tl -> Trace.wants sink cat || wants_any sink tl

(* the smallest power of two above [n] *)
let pow2_above n =
  let rec go p = if p > n then p else go (2 * p) in
  go 1

let create kernel clock ?(config = default_config) ~stats ~datapath ~mem () =
  let sched =
    match config.mode with Compiled -> Some (Schedule.compile datapath) | Dynamic -> None
  in
  let nodes = datapath.Datapath.nodes in
  let n_nodes = Array.length nodes in
  (* nodes are numbered in program order, so each block is one run of
     them; arrays, so [import_block]'s room check is O(1) — it re-runs
     every tick while an import waits for reservation slots *)
  let block_nodes = Hashtbl.create 16 in
  let largest_block = ref 0 in
  let run = ref 0 in
  for i = 1 to n_nodes do
    if i = n_nodes || nodes.(i).Datapath.block <> nodes.(!run).Datapath.block then begin
      Hashtbl.replace block_nodes nodes.(!run).Datapath.block (Array.sub nodes !run (i - !run));
      largest_block := max !largest_block (i - !run);
      run := i
    end
  done;
  let largest_block = !largest_block in
  (* register ids are dense per function (builder + mem2reg counters), so
     the register file and dependency tables are flat arrays *)
  let nregs = ref 0 in
  let see (v : Ast.var) = if v.id >= !nregs then nregs := v.id + 1 in
  List.iter see datapath.Datapath.func.Ast.params;
  let write_pj = Array.make n_nodes 0.0 in
  let reg_write_pj = datapath.Datapath.profile.Profile.reg_write_pj_per_bit in
  let infos =
    Array.map
      (fun (n : Datapath.node) ->
        let instr = n.Datapath.instr in
        let def = Ast.defined_var instr in
        let ops = Ast.operands instr in
        for i = 0 to Array.length ops - 1 do
          match ops.(i) with Ast.Var v -> see v | Ast.Const _ -> ()
        done;
        let is_phi = match instr with Ast.Phi _ -> true | _ -> false in
        let def_reg, def_ty =
          match def with
          | Some v ->
              see v;
              write_pj.(n.Datapath.n_id) <- float_of_int (Ty.bits v.Ast.ty) *. reg_write_pj;
              (v.Ast.id, v.Ast.ty)
          | None -> (-1, Ty.Void)
        in
        {
          (* a phi's operand resolves per predecessor at import *)
          si_sources = (if is_phi then [||] else ops);
          si_def = def;
          si_mem_size =
            (match instr with
            | Ast.Load { dst; _ } -> Ty.size_bytes dst.ty
            | Ast.Store { src; _ } -> Ty.size_bytes (Ast.value_ty src)
            | _ -> 0);
          si_mem_ty =
            (match instr with
            | Ast.Load { dst; _ } -> dst.ty
            | Ast.Store { src; _ } -> Ast.value_ty src
            | _ -> Ty.Void);
          si_is_load = (match instr with Ast.Load _ -> true | _ -> false);
          si_is_store = (match instr with Ast.Store _ -> true | _ -> false);
          si_has_result =
            (match instr with
            | Ast.Binop _ | Ast.Icmp _ | Ast.Fcmp _ | Ast.Cast _ | Ast.Select _ | Ast.Load _
            | Ast.Gep _ | Ast.Phi _ | Ast.Call _ ->
                true
            | Ast.Store _ | Ast.Alloca _ | Ast.Br _ | Ast.Cond_br _ | Ast.Ret _ -> false);
          si_res = 8 * (if is_phi then 1 else Array.length ops);
          si_fu_ix = (match n.Datapath.fu with Some cls -> Fu.index cls | None -> -1);
          si_def_reg = def_reg;
          si_def_ty = def_ty;
        })
      nodes
  in
  let nregs = !nregs in
  let specs =
    Array.of_list (List.map (Profile.spec datapath.Datapath.profile) Fu.all)
  in
  let fu_units = Array.make Fu.count 0 in
  Fu.Map.iter (fun cls count -> fu_units.(Fu.index cls) <- count) datapath.Datapath.fu_alloc;
  (* a block larger than the reservation queue could never be imported *)
  let config =
    if config.reservation_slots < largest_block + 8 then
      { config with reservation_slots = largest_block + 8 }
    else config
  in
  let wheel =
    pow2_above (Array.fold_left (fun m (n : Datapath.node) -> max m n.Datapath.latency) 0 nodes)
  in
  let tr = Kernel.trace kernel in
  let period = Int64.to_int (Clock.period_ticks clock) in
  (* registered in sequence: the group folds in registration order *)
  let stat = Stats.scalar stats in
  let s_cycles = stat "cycles" in
  let s_dyn = stat "dynamic_instructions" in
  let s_loads = stat "loads_issued" in
  let s_stores = stat "stores_issued" in
  let s_active = stat "active_cycles" in
  let s_issue_cycles = stat "issue_cycles" in
  let s_stall = stat "stall_cycles" in
  let s_stall_load = stat "stall_load_only" in
  let s_stall_load_compute = stat "stall_load_compute" in
  let s_stall_lsc = stat "stall_load_store_compute" in
  let s_stall_other = stat "stall_other" in
  let s_cyc_load = stat "cycles_with_load" in
  let s_cyc_store = stat "cycles_with_store" in
  let s_cyc_both = stat "cycles_with_load_and_store" in
  let s_cyc_fp = stat "cycles_with_fp" in
  let s_issued_fp = stat "issued_fp" in
  let s_issued_int = stat "issued_int" in
  let s_issued_mem = stat "issued_mem" in
  let s_issued_other = stat "issued_other" in
  let s_fu_energy = stat "dynamic_fu_energy_pj" in
  let s_reg_energy = stat "dynamic_reg_energy_pj" in
  let per_class name =
    let g = Stats.group ~parent:stats name in
    Array.map (fun cls -> Stats.scalar g (Fu.to_string cls)) (Array.of_list Fu.all)
  in
  let s_issued_by_class = per_class "issued_by_class" in
  let s_busy_integral = per_class "fu_busy_integral" in
  {
    kernel;
    clock;
    dp = datapath;
    cfg = config;
    mem;
    tr;
    tr_comp = "engine." ^ datapath.Datapath.func.Ast.fname;
    intrinsics = Interp.intrinsics;
    block_nodes;
    infos;
    specs;
    fu_fp = Array.of_list (List.map Fu.is_fp Fu.all);
    write_pj;
    fu_units;
    regs = Bytes.make (8 * nregs) '\000';
    insts = [||];
    n_insts = 0;
    pools = Array.make n_nodes nil;
    free_slots = nil;
    reservation = Slot_ring.create ~capacity:(config.reservation_slots + 8) ();
    waiting_count = 0;
    ready = Slot_list.create ();
    sched;
    ready_l = Slot_list.create ();
    ready_s = Slot_list.create ();
    scanning = false;
    scan_c = nil;
    scan_l = nil;
    scan_s = nil;
    live_mem = Slot_list.create ();
    unres_head = Array.make 2 nil;
    unres_tail = Array.make 2 nil;
    straddling = 0;
    ix_loads = Array.make ix_buckets nil;
    ix_stores = Array.make ix_buckets nil;
    live_device = Slot_list.create ();
    last_writer = Array.make nregs nil;
    last_instance = Array.make n_nodes nil;
    readers_waiting = Array.make nregs 0;
    war_head = Array.make nregs nil;
    war_tail = Array.make nregs nil;
    is_param =
      (let a = Array.make nregs false in
       List.iter
         (fun (p : Ast.var) -> a.(p.id) <- true)
         datapath.Datapath.func.Ast.params;
       a);
    ordered_ranges = [];
    fu_held = Array.make Fu.count 0;
    in_flight = Array.make Fu.count 0;
    scratch_issued = Array.make Fu.count 0;
    scratch_dirty = false;
    fu_peak = Array.make Fu.count 0;
    cap_refused = false;
    wheel_head = Array.make wheel nil;
    wheel_tail = Array.make wheel nil;
    wheel_mask = wheel - 1;
    reads_outstanding = 0;
    writes_outstanding = 0;
    inflight_total = 0;
    next_seq = 0;
    pending_import = No_import;
    phi_prev = Array.make (largest_block + 1) nil;
    phi_inst = Array.make (largest_block + 1) nil;
    is_running = false;
    ret_committed = false;
    ret_value = None;
    on_finish = None;
    tick_scheduled = false;
    sleeper = Kernel.add_sleeper kernel ~period;
    period;
    may_sleep =
      (not config.check)
      &&
      (match tr with
      | Some s -> not (wants_any s per_cycle_categories)
      | None -> true);
    in_tick = false;
    tick_cycle = 0;
    next_cycle = 0;
    res_seq = 0;
    imported = false;
    asleep = false;
    sleep_flags = 0;
    wake_cycle = max_int;
    shadow = -1;
    start_cycle = 0;
    cur_cycle = -1;
    cyc_active = false;
    cyc_issued = false;
    cyc_load = false;
    cyc_store = false;
    cyc_fp = false;
    cyc_wait_load = false;
    cyc_wait_store = false;
    cyc_wait_compute = false;
    s_cycles;
    s_dyn;
    s_loads;
    s_stores;
    s_active;
    s_issue_cycles;
    s_stall;
    s_stall_load;
    s_stall_load_compute;
    s_stall_lsc;
    s_stall_other;
    s_cyc_load;
    s_cyc_store;
    s_cyc_both;
    s_cyc_fp;
    s_issued_fp;
    s_issued_int;
    s_issued_mem;
    s_issued_other;
    s_fu_energy;
    s_reg_energy;
    s_issued_by_class;
    s_busy_integral;
    u_load = 0;
    u_comp = 0;
    r_load = 0;
    r_store = 0;
    r_fu = 0;
    tick_thunk = unset_thunk;
    k_commit = unset_k;
  }


let running t = t.is_running

let profile t = t.dp.Datapath.profile

let[@inline] inst t s = t.insts.(s)

(* --- trace emission ----------------------------------------------------

   Every emission site tests its category with [traces] before building
   a payload: with no sink, or with a sink that records none of the
   engine's categories, a site costs one branch and allocates nothing. *)

let[@inline] traces t cat =
  match t.tr with Some tr -> Trace.wants tr cat | None -> false

let emit t ~tick ~cat ~detail args =
  match t.tr with
  | Some tr -> Trace.emit tr ~tick ~comp:t.tr_comp ~cat ~detail args
  | None -> ()

let fu_names = Array.of_list (List.map Fu.to_string Fu.all)

let mnemonic (i : Ast.instr) =
  match i with
  | Ast.Binop { op; _ } -> Ast.binop_to_string op
  | Ast.Icmp { pred; _ } -> "icmp." ^ Ast.icmp_to_string pred
  | Ast.Fcmp { pred; _ } -> "fcmp." ^ Ast.fcmp_to_string pred
  | Ast.Cast { op; _ } -> Ast.cast_to_string op
  | Ast.Select _ -> "select"
  | Ast.Load _ -> "load"
  | Ast.Store _ -> "store"
  | Ast.Gep _ -> "gep"
  | Ast.Phi _ -> "phi"
  | Ast.Alloca _ -> "alloca"
  | Ast.Call { callee; _ } -> "call." ^ callee
  | Ast.Br _ -> "br"
  | Ast.Cond_br _ -> "condbr"
  | Ast.Ret _ -> "ret"

(* --- dependency bookkeeping ------------------------------------------- *)

let reg_read_energy t (ty : Ty.t) =
  float_of_int (Ty.bits ty) *. (profile t).Profile.reg_read_pj_per_bit

(* Resolve the address of a memory operation as soon as its address
   operand is available — a store's data value may arrive much later,
   and younger accesses must not stay conservatively blocked on it.
   The address is compared where it lies, in [vals] at [off]: an int64
   argument would be boxed at every call. *)
let rec ordered_hit vals off = function
  | [] -> false
  | (base, size) :: tl ->
      let a = get64 vals off in
      (a >= base && a < Int64.add base (Int64.of_int size)) || ordered_hit vals off tl

(* copy operand [i], the address, into the address slot *)
let set_addr t d i =
  let off = addr_off d in
  set64 d.vals off (operand d i);
  d.addr_known <- true;
  d.is_device <- ordered_hit d.vals off t.ordered_ranges

let resolve_addr t d =
  if not d.addr_known then
    if d.is_load then (if d.producers.(0) = nil then set_addr t d 0)
    else if d.is_store then if d.producers.(1) = nil then set_addr t d 1

let add_ordered_range t ~base ~size = t.ordered_ranges <- (base, size) :: t.ordered_ranges

let in_ordered_range t ~addr =
  List.exists
    (fun (base, size) -> addr >= base && addr < Int64.add base (Int64.of_int size))
    t.ordered_ranges

(* An instruction with no pending value or hazard dependency enters a
   ready list, kept sorted by seq so the issue scan preserves program
   order. Each instance enters at most once per life (readiness is
   monotonic: counters only decrease, and it leaves the list only by
   issuing). Fresh wake-ups are nearly always the youngest ready
   instructions, so the sorted insert starts from the previous insert
   and is O(1) amortised.

   Compiled mode keeps loads and stores in their own lists. While a scan
   runs, a slot linked at or before a list's cursor would be missed by
   the rest of the pass, so the cursor is rewound onto it. Wake-ups
   always carry a seq greater than the op the scan is currently issuing
   (producers and hazard blockers are older than their dependents), so
   the merge's picks still arrive in strictly increasing seq order —
   identical to the single-list scan. *)
let[@inline] ready_list t d =
  if t.sched == None then t.ready
  else if d.is_load then t.ready_l
  else if d.is_store then t.ready_s
  else t.ready

let try_wake t d =
  if d.st = Waiting && d.missing = 0 && d.hazards = 0 then begin
    let l = ready_list t d in
    if not (Slot_list.linked l d.id) then begin
      Slot_list.sorted_insert l ~key:d.seq d.id;
      if t.scanning then
        if d.is_load then t.scan_l <- Slot_list.rewind l ~cursor:t.scan_l d.id
        else if d.is_store then t.scan_s <- Slot_list.rewind l ~cursor:t.scan_s d.id
        else t.scan_c <- Slot_list.rewind l ~cursor:t.scan_c d.id
    end
  end

(* --- stall classification ----------------------------------------------

   A cycle that issues nothing is a stall, classified for Figs 14-15 by
   what the Waiting entries wait on. An undelivered operand charges its
   producer's kind. An entry whose operands have all arrived is held by
   a structural hazard and charges its own kind; a memory op also
   charges the kind of every older live memory op that may be ordering
   it. The flags are an OR over the Waiting entries, so five counters
   kept current at capture, delivery and issue decide them without a
   reservation walk. *)

let stall_load = 1 and stall_store = 2 and stall_compute = 4

(* [d] = 1 when [dyn]'s last operand arrives, -1 when it issues *)
let count_ready t dyn d =
  if dyn.is_load then t.r_load <- t.r_load + d
  else if dyn.is_store then t.r_store <- t.r_store + d
  else if dyn.info.si_fu_ix >= 0 then t.r_fu <- t.r_fu + d

(* one operand slot starts ([d] = 1) or stops waiting on [producer]; a
   store defines no register, so it is never a producer *)
let count_undelivered t producer d =
  if producer.is_load then t.u_load <- t.u_load + d else t.u_comp <- t.u_comp + d

(* --- the ordering index --------------------------------------------------

   Issue asks whether an older live memory op may conflict (see
   [conflict]). The index answers without walking [live_mem]: an older
   op with an unknown address heads an unresolved chain, an older device
   op heads [live_device], and an older op whose bytes overlap lies in
   the bucket of one of the words the access touches (an access is at
   most 8 bytes, so only an op crossing a word could reach in from the
   word before; while any such op is live, and without address
   disambiguation, the reference walk answers instead). *)

let straddles d = (addr_of d land 7) + d.mem_size > 8

let[@inline] kind d = if d.is_store then 1 else 0

(* [d]'s address has become known while it is live *)
let index_resolved t d =
  if d.is_device then Slot_list.sorted_insert t.live_device ~key:d.seq d.id;
  if straddles d then t.straddling <- t.straddling + 1
  else begin
    let heads = if d.is_store then t.ix_stores else t.ix_loads in
    let b = bucket_of (addr_of d) in
    let h = heads.(b) in
    d.ix_prev <- nil;
    d.ix_next <- h;
    if h <> nil then (inst t h).ix_prev <- d.id;
    heads.(b) <- d.id
  end

(* a memory op joins [live_mem], and the index, at import *)
let index_live t d =
  Slot_list.push_back t.live_mem d.id;
  if d.addr_known then index_resolved t d
  else begin
    let k = kind d in
    let tl = t.unres_tail.(k) in
    d.ix_prev <- tl;
    d.ix_next <- nil;
    if tl <> nil then (inst t tl).ix_next <- d.id else t.unres_head.(k) <- d.id;
    t.unres_tail.(k) <- d.id
  end

let unindex_resolving t d =
  let k = kind d in
  let p = d.ix_prev and n = d.ix_next in
  if p <> nil then (inst t p).ix_next <- n else t.unres_head.(k) <- n;
  if n <> nil then (inst t n).ix_prev <- p else t.unres_tail.(k) <- p

(* a memory op leaves the index at issue, when its address is known *)
let unindex_issued t d =
  Slot_list.remove t.live_mem d.id;
  if d.is_device then Slot_list.remove t.live_device d.id;
  if straddles d then t.straddling <- t.straddling - 1
  else begin
    let p = d.ix_prev and n = d.ix_next in
    if p <> nil then (inst t p).ix_next <- n
    else (if d.is_store then t.ix_stores else t.ix_loads).(bucket_of (addr_of d)) <- n;
    if n <> nil then (inst t n).ix_prev <- p
  end

(* [producer]'s committed result arrives in [consumer]'s operand [slot] *)
let deliver t producer consumer slot =
  set64 consumer.vals (8 * slot) (get64 producer.vals (res_off producer));
  consumer.producers.(slot) <- nil;
  consumer.missing <- consumer.missing - 1;
  count_undelivered t producer (-1);
  if consumer.missing = 0 then count_ready t consumer 1;
  if (consumer.is_load || consumer.is_store) && not consumer.addr_known then begin
    resolve_addr t consumer;
    if consumer.addr_known then begin
      unindex_resolving t consumer;
      index_resolved t consumer
    end
  end;
  try_wake t consumer

(* Does an operand-complete live memory op of kind [store] sit behind an
   older live op of the other kind? [live_mem] holds exactly the Waiting
   memory ops, in program order. *)
let rec ready_behind_other t ~store seen_other s =
  if s = nil then false
  else
    let d = inst t s in
    let nx = Slot_list.next t.live_mem s in
    if d.is_store <> store then ready_behind_other t ~store true nx
    else (seen_other && d.missing = 0) || ready_behind_other t ~store seen_other nx

(* A bitmask of [stall_load], [stall_store] and [stall_compute]. The two
   ordering terms walk [live_mem], and only when the counters have not
   already decided their flag. *)
let stall_flags t =
  let ready_load = t.r_load > 0 and ready_store = t.r_store > 0 in
  let head = Slot_list.head t.live_mem in
  let load =
    t.u_load > 0 || ready_load || (ready_store && ready_behind_other t ~store:true false head)
  in
  let store = ready_store || (ready_load && ready_behind_other t ~store:false false head) in
  (if load then stall_load else 0)
  lor (if store then stall_store else 0)
  lor if t.u_comp > 0 || t.r_fu > 0 then stall_compute else 0

let rec older_mem_kinds t seq acc s =
  if s <> nil && (inst t s).seq < seq then
    let kind = if (inst t s).is_load then stall_load else stall_store in
    older_mem_kinds t seq (acc lor kind) (Slot_list.next t.live_mem s)
  else acc

(* The same classification recomputed from scratch over every Waiting
   reservation entry, for the check-mode cross-check of the counters. No
   per-entry allocation; stops once all three flags are set. *)
let stall_flags_reference t =
  let flags = ref 0 in
  Slot_ring.iter_while
    (fun s ->
      let dyn = inst t s in
      if dyn.st = Waiting then begin
        for i = 0 to n_ops dyn - 1 do
          let p = dyn.producers.(i) in
          if p <> nil then
            let p = inst t p in
            flags :=
              !flags
              lor
              if p.is_load then stall_load else if p.is_store then stall_store else stall_compute
        done;
        if dyn.missing = 0 then
          if dyn.is_load || dyn.is_store then
            flags :=
              older_mem_kinds t dyn.seq
                (!flags lor if dyn.is_load then stall_load else stall_store)
                (Slot_list.head t.live_mem)
          else if Option.is_some dyn.node.Datapath.fu then flags := !flags lor stall_compute
      end;
      !flags <> stall_load lor stall_store lor stall_compute)
    t.reservation;
  !flags

let check_stall_flags t flags =
  let want = stall_flags_reference t in
  if flags <> want then
    let show f =
      Printf.sprintf "load=%b store=%b compute=%b" (f land stall_load <> 0)
        (f land stall_store <> 0) (f land stall_compute <> 0)
    in
    raise
      (Invariant_violation
         (Printf.sprintf "@%s: cycle %d: stall counters classify %s, reservation walk %s"
            t.dp.Datapath.func.Ast.fname t.cur_cycle (show flags) (show want)))

(* Retire an instance. Safe only once it is [Done] *and* popped from the
   reservation: by then its reader counts were released (at issue),
   [last_writer] dropped it (at commit), and its value dependents were
   all delivered (clearing their [producers] entries).

   Compiled mode returns the instance to its node's pool, to be replayed
   with its arrays and continuation intact; a remaining [last_instance]
   entry guards on a state the instance, reused only for the same node,
   reaches only once the import has re-registered it. Dynamic mode, the
   reference path, gives every import a fresh instance, as it always
   has, and frees only the slot; since the slot may next hold another
   node's instance, the node's [last_instance] entry is dropped (it
   could only have named a [Done] instance, which blocks nothing). *)
let recycle t dyn =
  let nid = dyn.node.Datapath.n_id in
  if t.sched != None then begin
    dyn.pool_next <- t.pools.(nid);
    t.pools.(nid) <- dyn.id
  end
  else begin
    if t.last_instance.(nid) = dyn.id then t.last_instance.(nid) <- nil;
    dyn.pool_next <- t.free_slots;
    t.free_slots <- dyn.id
  end

(* --- operand capture and hazard links ---------------------------------- *)

(* Operand [i] waits on the in-flight [producer]: push a (dyn, i) link
   at the head of the producer's dependent chain. *)
let link_producer t dyn i producer =
  dyn.producers.(i) <- producer.id;
  dyn.missing <- dyn.missing + 1;
  count_undelivered t producer 1;
  dyn.dep_next.(i) <- producer.dep_head;
  dyn.dep_slot.(i) <- producer.dep_head_slot;
  producer.dep_head <- dyn.id;
  producer.dep_head_slot <- i

(* Operand [i] of [dyn] reads register [v]: from its in-flight writer,
   or now from the register file, charging [read_pj]. *)
let capture_reg t dyn i (v : Ast.var) read_pj =
  let w = t.last_writer.(v.id) in
  if w <> nil && (inst t w).st <> Done then link_producer t dyn i (inst t w)
  else begin
    Stats.add t.s_reg_energy read_pj;
    set64 dyn.vals (8 * i) (get64 t.regs (8 * v.id));
    dyn.producers.(i) <- nil
  end

(* WAW and WAR hazards: a new instance of a static instruction may not
   issue before the previous instance has (WAW), and a writer may not
   issue before every still-Waiting reader of its register imported
   ahead of it (WAR). Each kind is one unit of [hazards], released at a
   blocker's issue; neither allocates nor walks the waiting readers.

   - WAW: an instance blocks at most one successor, the next instance of
     its node, held in [waw_dep].
   - WAR: each register counts the operand occurrences of it in Waiting
     instructions. A writer imported while that count is non-zero joins
     the register's writer queue (seq order) with [war_older] set to the
     count: exactly the readers imported before it. A reader's issue
     decrements the count of every queued writer younger than itself;
     [war_older] never decreases along the queue, so writers reach zero
     head first and leave it in order. A writer that also reads its own
     destination counts that read after its hazard check, so it never
     waits on itself. *)

let block_waw dyn prev =
  dyn.hazards <- dyn.hazards + 1;
  prev.waw_dep <- dyn.id

(* [dyn] is about to define register [id] *)
let block_war t dyn id =
  let older = t.readers_waiting.(id) in
  if older > 0 then begin
    dyn.hazards <- dyn.hazards + 1;
    dyn.war_older <- older;
    let tl = t.war_tail.(id) in
    if tl <> nil then (inst t tl).war_next <- dyn.id else t.war_head.(id) <- dyn.id;
    t.war_tail.(id) <- dyn.id
  end

let add_reader t dyn id =
  let k = dyn.n_readers in
  dyn.reader_regs.(k) <- id;
  dyn.n_readers <- k + 1;
  t.readers_waiting.(id) <- t.readers_waiting.(id) + 1

let release t d =
  d.hazards <- d.hazards - 1;
  try_wake t d

(* a reader with sequence number [seq] of register [id] has issued *)
let rec older_reader_issued t seq w =
  if w <> nil then begin
    let wd = inst t w in
    if wd.seq > seq then wd.war_older <- wd.war_older - 1;
    older_reader_issued t seq wd.war_next
  end

let rec release_war t id =
  let h = t.war_head.(id) in
  if h <> nil then
    let w = inst t h in
    if w.war_older = 0 then begin
      t.war_head.(id) <- w.war_next;
      if w.war_next = nil then t.war_tail.(id) <- nil;
      w.war_next <- nil;
      release t w;
      release_war t id
    end

(* [dyn] has issued: wake its WAW successor and every writer its reads
   were holding back *)
let release_hazards t dyn =
  let w = dyn.waw_dep in
  if w <> nil then begin
    dyn.waw_dep <- nil;
    release t (inst t w)
  end;
  for k = 0 to dyn.n_readers - 1 do
    let id = dyn.reader_regs.(k) in
    t.readers_waiting.(id) <- t.readers_waiting.(id) - 1;
    let head = t.war_head.(id) in
    if head <> nil then begin
      older_reader_issued t dyn.seq head;
      release_war t id
    end
  done;
  dyn.n_readers <- 0

(* [producer]'s committed result reaches each (consumer, slot) link of
   its chain, most recent registration first *)
let rec deliver_chain t producer c slot =
  (* read the onward link before waking, so the traversal is independent
     of anything [try_wake] does *)
  let consumer = inst t c in
  let nxt = consumer.dep_next.(slot) in
  let nslot = consumer.dep_slot.(slot) in
  deliver t producer consumer slot;
  if nxt <> nil then deliver_chain t producer nxt nslot

(* base in operand 0 plus the scaled indices in operands 1.., written to
   the result slot *)
let gep dyn offsets =
  let acc = ref (operand dyn 0) in
  let rest = ref offsets in
  let i = ref 1 in
  let fin = ref false in
  while not !fin do
    match !rest with
    | [] -> fin := true
    | (scale, idx_v) :: tl ->
        let idx = Bits.Payload.signed (Ast.value_ty idx_v) (operand dyn !i) in
        acc := Int64.add !acc (Int64.mul (Int64.of_int scale) idx);
        incr i;
        rest := tl
  done;
  set64 dyn.vals (res_off dyn) !acc

let rec call_args dyn i = function
  | [] -> []
  | a :: tl -> Bits.of_payload (Ast.value_ty a) (operand dyn i) :: call_args dyn (i + 1) tl

(* Evaluate a non-memory instruction into its result slot (or its branch
   outcome / the return value). The arithmetic is {!Bits.Payload},
   inlined here, so operands and results stay raw payloads. *)
let eval_compute t dyn =
  let r = res_off dyn in
  match dyn.node.Datapath.instr with
  | Ast.Binop { op; dst; _ } ->
      set64 dyn.vals r (Bits.Payload.binop op dst.ty (operand dyn 0) (operand dyn 1))
  | Ast.Icmp { pred; lhs; _ } ->
      set64 dyn.vals r (Bits.Payload.icmp pred (Ast.value_ty lhs) (operand dyn 0) (operand dyn 1))
  | Ast.Fcmp { pred; _ } ->
      set64 dyn.vals r (Bits.Payload.fcmp pred (operand dyn 0) (operand dyn 1))
  | Ast.Cast { op; dst; src } ->
      set64 dyn.vals r
        (Bits.Payload.cast op ~src_ty:(Ast.value_ty src) ~dst_ty:dst.ty (operand dyn 0))
  | Ast.Select { cond; _ } ->
      let i = if Bits.Payload.to_bool (Ast.value_ty cond) (operand dyn 0) then 1 else 2 in
      set64 dyn.vals r (operand dyn i)
  | Ast.Gep { offsets; _ } -> gep dyn offsets
  | Ast.Phi _ -> set64 dyn.vals r (operand dyn 0)
  | Ast.Call { callee; args; _ } ->
      let impl =
        try List.assoc callee t.intrinsics
        with Not_found -> invalid_arg ("Engine: unknown intrinsic @" ^ callee)
      in
      set64 dyn.vals r (Bits.payload (impl (call_args dyn 0 args)))
  | Ast.Br _ -> ()
  | Ast.Cond_br { cond; _ } -> dyn.taken <- Bits.Payload.to_bool (Ast.value_ty cond) (operand dyn 0)
  | Ast.Ret v ->
      t.ret_value <-
        (match v with
        | Some v when n_ops dyn > 0 -> Some (Bits.of_payload (Ast.value_ty v) (operand dyn 0))
        | Some _ | None -> None)
  | Ast.Alloca _ -> invalid_arg "Engine: alloca must be eliminated before simulation"
  | Ast.Load _ | Ast.Store _ -> assert false

(* memory ordering: an op may issue once every older live memory
   operation either has issued or provably does not conflict *)
let conflict t dyn older =
  (* live_mem only holds Waiting ops *)
  if dyn.is_device then
    (* stream/device accesses issue in program order relative to every
       older device access (and to accesses whose target is unknown) *)
    older.is_device || not older.addr_known
  else if older.is_load && dyn.is_load then false
  else if not t.cfg.disambiguate_memory then true
  else if older.addr_known && dyn.addr_known then
    let a = get64 older.vals (addr_off older) and b = get64 dyn.vals (addr_off dyn) in
    a < Int64.add b (Int64.of_int dyn.mem_size) && b < Int64.add a (Int64.of_int older.mem_size)
  else true (* unresolved address: conservative *)

(* The reference walk: [live_mem] is kept in program (seq) order, so it
   stops at the first entry that is not older than [dyn]. *)
let rec ordering_clear t dyn s =
  if s = nil then true
  else
    let older = inst t s in
    if older.seq >= dyn.seq then true
    else if conflict t dyn older then false
    else ordering_clear t dyn (Slot_list.next t.live_mem s)

let[@inline] older_head t l dyn =
  let h = Slot_list.head l in
  h <> nil && (inst t h).seq < dyn.seq

(* an unresolved op of kind [k] older than [dyn] *)
let[@inline] older_unresolved t k dyn =
  let h = t.unres_head.(k) in
  h <> nil && (inst t h).seq < dyn.seq

(* an op of the bucket chain from [s], older than [dyn], overlapping
   [a, a + dyn.mem_size) *)
let rec bucket_overlap t dyn a s =
  s <> nil
  &&
  let o = inst t s in
  (o.seq < dyn.seq
  &&
  let b = addr_of o in
  b < a + dyn.mem_size && a < b + o.mem_size)
  || bucket_overlap t dyn a o.ix_next

let in_buckets t dyn a heads =
  let w0 = bucket_of a and w1 = bucket_of (a + dyn.mem_size - 1) in
  bucket_overlap t dyn a heads.(w0) || (w1 <> w0 && bucket_overlap t dyn a heads.(w1))

let overlaps_older t dyn =
  let a = addr_of dyn in
  in_buckets t dyn a t.ix_stores || (dyn.is_store && in_buckets t dyn a t.ix_loads)

(* [conflict] over every older live op, from the index; [dyn]'s own
   address is known (its operands have all arrived) *)
let ordering_clear_indexed t dyn =
  if t.straddling > 0 || not t.cfg.disambiguate_memory then
    ordering_clear t dyn (Slot_list.head t.live_mem)
  else if dyn.is_device then
    not (older_head t t.live_device dyn || older_unresolved t 0 dyn || older_unresolved t 1 dyn)
  else if dyn.is_load then not (older_unresolved t 1 dyn || overlaps_older t dyn)
  else not (older_unresolved t 0 dyn || older_unresolved t 1 dyn || overlaps_older t dyn)

(* check mode compares the index's answer with the walk *)
let memory_ordering_ok t dyn =
  let ok = ordering_clear_indexed t dyn in
  if t.cfg.check && ok <> ordering_clear t dyn (Slot_list.head t.live_mem) then
    raise
      (Invariant_violation
         (Printf.sprintf "@%s: cycle %d: %s ordering %b from the index, %b from the walk"
            t.dp.Datapath.func.Ast.fname t.cur_cycle
            (if dyn.is_load then "load" else "store")
            ok (not ok)));
  ok

(* --- timing invariants (active when [config.check]) -------------------- *)

(* Per-cycle structural invariant: a class can never issue more
   operations in one cycle than it has units, nor hold more unpipelined
   units. Violations mean the issue scan's structural-hazard accounting
   has drifted. One cycle can run several ticks (a zero-latency commit,
   or a memory completion after the cycle's first tick, reschedules
   [tick] at the same tick); the issue counts restart only with the
   cycle, so the check holds over all of them. *)
let check_cycle t =
  Array.iteri
    (fun i units ->
      if units > 0 then begin
        if t.scratch_issued.(i) > units then
          raise
            (Invariant_violation
               (Printf.sprintf "@%s: issued %d %s ops in one cycle with %d unit(s)"
                  t.dp.Datapath.func.Ast.fname t.scratch_issued.(i)
                  (Fu.to_string (List.nth Fu.all i))
                  units));
        if t.fu_held.(i) > units then
          raise
            (Invariant_violation
               (Printf.sprintf "@%s: %d unpipelined %s units held with %d allocated"
                  t.dp.Datapath.func.Ast.fname t.fu_held.(i)
                  (Fu.to_string (List.nth Fu.all i))
                  units))
      end)
    t.fu_units

(* End-of-run invariants: every queue drained, every counter back to
   zero, and the stall breakdown accounts for every active cycle. *)
let check_completion t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if not (Slot_list.is_empty t.ready) then
    err "ready queue holds %d entries at completion" (Slot_list.length t.ready);
  if not (Slot_list.is_empty t.ready_l) then
    err "ready load queue holds %d entries at completion" (Slot_list.length t.ready_l);
  if not (Slot_list.is_empty t.ready_s) then
    err "ready store queue holds %d entries at completion" (Slot_list.length t.ready_s);
  if not (Slot_list.is_empty t.live_mem) then
    err "live memory queue holds %d entries at completion" (Slot_list.length t.live_mem);
  if
    not
      (Array.for_all (fun h -> h = nil) t.unres_head
      && t.straddling = 0 && Slot_list.is_empty t.live_device
      && Array.for_all (fun h -> h = nil) t.ix_loads
      && Array.for_all (fun h -> h = nil) t.ix_stores)
  then err "ordering index not empty at completion";
  let waiting = ref 0 in
  Slot_ring.iter_while
    (fun s ->
      if (inst t s).st = Waiting then incr waiting;
      true)
    t.reservation;
  if !waiting <> 0 then err "reservation queue holds %d waiting entries at completion" !waiting;
  if t.waiting_count <> 0 then err "waiting_count = %d at completion" t.waiting_count;
  if t.inflight_total <> 0 then err "%d operations still in flight at completion" t.inflight_total;
  let rec bucket_length n s = if s = nil then n else bucket_length (n + 1) (inst t s).wheel_next in
  let on_wheel = Array.fold_left bucket_length 0 t.wheel_head in
  if on_wheel <> 0 then err "%d operations still on the completion wheel at completion" on_wheel;
  if t.reads_outstanding <> 0 then err "%d reads outstanding at completion" t.reads_outstanding;
  if t.writes_outstanding <> 0 then
    err "%d writes outstanding at completion" t.writes_outstanding;
  if Array.exists (fun w -> w <> nil) t.war_head then
    err "writers still queued on a WAR hazard at completion";
  if Array.exists (fun n -> n <> 0) t.readers_waiting then
    err "WAR reader counts non-zero at completion";
  if t.u_load <> 0 || t.u_comp <> 0 || t.r_load <> 0 || t.r_store <> 0 || t.r_fu <> 0 then
    err "stall counters u_load=%d u_comp=%d r_load=%d r_store=%d r_fu=%d at completion" t.u_load
      t.u_comp t.r_load t.r_store t.r_fu;
  Array.iteri
    (fun i n ->
      if n <> 0 then err "%d %s ops in flight at completion" n (Fu.to_string (List.nth Fu.all i)))
    t.in_flight;
  Array.iteri
    (fun i n ->
      if n <> 0 then err "%d %s units held at completion" n (Fu.to_string (List.nth Fu.all i)))
    t.fu_held;
  let v = Stats.value in
  if v t.s_active <> v t.s_issue_cycles +. v t.s_stall then
    err "active cycles (%.0f) <> issue (%.0f) + stall (%.0f)" (v t.s_active)
      (v t.s_issue_cycles) (v t.s_stall);
  if
    v t.s_stall
    <> v t.s_stall_load +. v t.s_stall_load_compute +. v t.s_stall_lsc +. v t.s_stall_other
  then
    err "stall breakdown (%.0f+%.0f+%.0f+%.0f) does not sum to stall cycles (%.0f)"
      (v t.s_stall_load) (v t.s_stall_load_compute) (v t.s_stall_lsc) (v t.s_stall_other)
      (v t.s_stall);
  match List.rev !errs with
  | [] -> ()
  | errs ->
      raise
        (Invariant_violation
           (Printf.sprintf "@%s: %s" t.dp.Datapath.func.Ast.fname (String.concat "; " errs)))

(* the tick at which the cycle being finalised started *)
let cycle_tick t = Int64.mul (Int64.of_int t.cur_cycle) (Clock.period_ticks t.clock)

let note_issue t dyn =
  t.cyc_issued <- true;
  if dyn.is_load then t.cyc_load <- true;
  if dyn.is_store then t.cyc_store <- true;
  if dyn.info.si_fu_ix >= 0 && t.fu_fp.(dyn.info.si_fu_ix) then t.cyc_fp <- true

(* The node's previous instance while it is still Waiting, else [nil].
   Read before [acquire]: the pooled instance about to be reused may
   itself be that previous instance (then it is [Done] and no hazard
   applies). Nothing between this read and the hazard registration can
   change the predecessor's state. *)
let waw_prev t nid =
  if t.cfg.enforce_waw then
    let prev = t.last_instance.(nid) in
    if prev <> nil && (inst t prev).st = Waiting then prev else nil
  else nil

(* Hazard registration, shared by both import paths: WAW on the node's
   previous instance, WAR on the destination register. *)
let register_hazards t dyn prev (def : Ast.var option) =
  if prev <> nil then block_waw dyn (inst t prev);
  t.last_instance.(dyn.node.Datapath.n_id) <- dyn.id;
  match def with
  | Some dst ->
      if t.cfg.enforce_war then block_war t dyn dst.Ast.id;
      t.last_writer.(dst.Ast.id) <- dyn.id
  | None -> ()

(* Units of class [i] an FU issue this tick would find taken: the ops
   issued this cycle, or, for an unpipelined class, the units held until
   commit when they are more ([issue] counts an unpipelined op in both
   from its issue on, so adding them would count it twice). The one
   place the allocation reaches the engine compares against this
   ([can_issue]); [issue] records its peak. *)
let[@inline] units_in_use t i =
  if t.specs.(i).Profile.pipelined then t.scratch_issued.(i)
  else Int.max t.fu_held.(i) t.scratch_issued.(i)

(* Inside a tick, time is the tick's clock edge: the pending tick's
   insertion number is taken now, where inserting it would have taken it,
   and [end_tick] decides whether it is queued or sleeps. *)
let rec schedule_tick t ~cycles =
  if not t.tick_scheduled then begin
    t.tick_scheduled <- true;
    if t.in_tick then begin
      t.next_cycle <- t.tick_cycle + cycles;
      t.res_seq <- Kernel.reserve_seq t.kernel
    end
    else begin
      let tick = Clock.edge_tick_i t.clock ~cycles in
      t.next_cycle <- tick / t.period;
      Kernel.schedule_at_i t.kernel ~tick t.tick_thunk
    end
  end

and import_block t ~label ~pred =
  let nodes =
    try Hashtbl.find t.block_nodes label
    with Not_found -> invalid_arg ("Engine: unknown block " ^ label)
  in
  let room = t.cfg.reservation_slots - t.waiting_count in
  if room < Array.length nodes then t.pending_import <- Pending_label (label, pred)
  else begin
    t.pending_import <- No_import;
    (* LLVM phis are parallel copies: every leading phi captures its
       operand before any registers its destination *)
    let phis = ref 0 and phi_sources = ref [] in
    while
      !phis < Array.length nodes
      && match nodes.(!phis).Datapath.instr with Ast.Phi _ -> true | _ -> false
    do
      let node = nodes.(!phis) in
      let value =
        match node.Datapath.instr with
        | Ast.Phi { incoming; _ } -> (
            (* resolve against the edge taken; a phi is pure wiring *)
            match List.find_opt (fun (_, l) -> l = pred) incoming with
            | Some (v, _) -> v
            | None ->
                invalid_arg (Printf.sprintf "Engine: phi in %s lacks incoming for %s" label pred))
        | _ -> assert false
      in
      let sources = [| value |] in
      t.phi_prev.(!phis) <- waw_prev t node.Datapath.n_id;
      t.phi_inst.(!phis) <- (capture_dyn t node sources).id;
      phi_sources := sources :: !phi_sources;
      incr phis
    done;
    List.iteri
      (fun i sources ->
        let dyn = finish_dyn t (inst t t.phi_inst.(i)) t.phi_prev.(i) sources in
        Slot_ring.push_back t.reservation dyn.id;
        t.waiting_count <- t.waiting_count + 1)
      (List.rev !phi_sources);
    for i = !phis to Array.length nodes - 1 do
      let node = nodes.(i) in
      let sources = t.infos.(node.Datapath.n_id).si_sources in
      let prev = waw_prev t node.Datapath.n_id in
      let dyn = finish_dyn t (capture_dyn t node sources) prev sources in
      Slot_ring.push_back t.reservation dyn.id;
      t.waiting_count <- t.waiting_count + 1
    done;
    t.imported <- true;
    schedule_tick t ~cycles:0
  end

(* Compiled import: replay the edge's precompiled row array. Decisions
   the dynamic path re-derives per instance — block lookup, phi
   incoming search, constant truncation, reader-registration operand
   matching — were made once by [Schedule.compile]; only the genuinely
   dynamic state (producer links, hazards, address resolution) is
   computed here, in exactly the order [import_block] computes it. *)
and import_edge t e =
  let room = t.cfg.reservation_slots - t.waiting_count in
  if room < Schedule.edge_size e then begin
    match t.pending_import with
    | Pending_edge p when p == e -> ()
    | _ -> t.pending_import <- Pending_edge e
  end
  else begin
    t.pending_import <- No_import;
    let rows = Schedule.edge_rows e in
    let phis = Schedule.edge_phis e in
    for i = 0 to phis - 1 do
      t.phi_prev.(i) <- waw_prev t rows.(i).Schedule.r_node.Datapath.n_id;
      t.phi_inst.(i) <- (capture_compiled t rows.(i)).id
    done;
    for i = 0 to phis - 1 do
      let dyn = finish_compiled t (inst t t.phi_inst.(i)) t.phi_prev.(i) rows.(i) in
      Slot_ring.push_back t.reservation dyn.id;
      t.waiting_count <- t.waiting_count + 1
    done;
    for i = phis to Array.length rows - 1 do
      let row = rows.(i) in
      let prev = waw_prev t row.Schedule.r_node.Datapath.n_id in
      let dyn = finish_compiled t (capture_compiled t row) prev row in
      Slot_ring.push_back t.reservation dyn.id;
      t.waiting_count <- t.waiting_count + 1
    done;
    t.imported <- true;
    schedule_tick t ~cycles:0
  end

and import_pending t =
  match t.pending_import with
  | No_import -> ()
  | Pending_edge e -> import_edge t e
  | Pending_label (label, pred) -> import_block t ~label ~pred

(* A new instance in a free slot of the table, or a new one; [n_ops]
   value operands. *)
and fresh_dyn t (node : Datapath.node) ~n_ops =
  let info = t.infos.(node.Datapath.n_id) in
  assert (8 * n_ops = info.si_res);
  let id = t.free_slots in
  let id =
    if id = nil then t.n_insts
    else begin
      t.free_slots <- (inst t id).pool_next;
      id
    end
  in
  let dyn =
    {
      id;
      seq = 0;
      node;
      vals = Bytes.make (8 * (n_ops + 2)) '\000';
      producers = Array.make n_ops nil;
      missing = 0;
      hazards = 0;
      st = Waiting;
      waw_dep = nil;
      war_next = nil;
      addr_known = false;
      mem_size = info.si_mem_size;
      mem_ty = info.si_mem_ty;
      info;
      is_load = info.si_is_load;
      is_store = info.si_is_store;
      is_device = false;
      taken = false;
      reader_regs = Array.make n_ops 0;
      n_readers = 0;
      war_older = 0;
      pool_next = nil;
      retired = false;
      wheel_next = nil;
      ix_prev = nil;
      ix_next = nil;
      dep_head = nil;
      dep_head_slot = 0;
      dep_next = Array.make n_ops nil;
      dep_slot = Array.make n_ops 0;
    }
  in
  if id = Array.length t.insts then begin
    let cap = max 64 (2 * id) in
    let bigger = Array.make cap dyn in
    Array.blit t.insts 0 bigger 0 id;
    t.insts <- bigger;
    List.iter
      (fun l -> Slot_list.reserve l cap)
      [
        t.ready;
        t.ready_l;
        t.ready_s;
        t.live_mem;
        t.live_device;
      ]
  end;
  t.insts.(id) <- dyn;
  if id = t.n_insts then t.n_insts <- id + 1;
  dyn

(* The next instance of [node]: in compiled mode a pooled one reset to
   Waiting, else a fresh one (see [recycle]). Only the fields the import
   below does not overwrite are reset. [dep_head] was cleared when the
   instance committed; its reader counts, [waw_dep] and [war_next] were
   released by the time it issued; [taken] and the result slot are
   written before they are read. *)
and acquire t (node : Datapath.node) ~n_ops =
  let nid = node.Datapath.n_id in
  let p = if t.sched != None then t.pools.(nid) else nil in
  let dyn =
    if p = nil then fresh_dyn t node ~n_ops
    else begin
      let d = inst t p in
      t.pools.(nid) <- d.pool_next;
      d.missing <- 0;
      d.hazards <- 0;
      d.st <- Waiting;
      d.addr_known <- false;
      d.is_device <- false;
      d.retired <- false;
      d
    end
  in
  dyn.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  Stats.incr t.s_dyn;
  dyn

(* An import makes each instance in two steps: [capture_*] takes a new
   instance and captures its operands, [finish_*] registers its hazards
   and readers and links it into the wake-up lists. An instance's
   [waw_prev] is read before its capture. *)
and capture_compiled t (row : Schedule.row) =
  let plans = row.Schedule.r_plans in
  let dyn = acquire t row.Schedule.r_node ~n_ops:(Array.length plans) in
  (* operand capture from the precompiled plans; same order and energy
     accounting as the dynamic path *)
  for i = 0 to Array.length plans - 1 do
    match plans.(i) with
    | Schedule.Pimm p ->
        set64 dyn.vals (8 * i) p;
        dyn.producers.(i) <- nil
    | Schedule.Preg { var; read_pj } -> capture_reg t dyn i var read_pj
  done;
  dyn

and finish_compiled t dyn prev (row : Schedule.row) =
  resolve_addr t dyn;
  register_hazards t dyn prev row.Schedule.r_def;
  let rds = row.Schedule.r_readers in
  for i = 0 to Array.length rds - 1 do
    add_reader t dyn rds.(i).Ast.id
  done;
  link_live_mem t dyn;
  if dyn.missing = 0 then count_ready t dyn 1;
  try_wake t dyn;
  dyn

and capture_dyn t (node : Datapath.node) (sources : Ast.value array) =
  let dyn = acquire t node ~n_ops:(Array.length sources) in
  (* operand capture: constants now, committed registers from the
     register file, in-flight producers via dependency links *)
  for i = 0 to Array.length sources - 1 do
    match sources.(i) with
    | Ast.Const c ->
        let p =
          match c with
          | Ast.Cint (ty, x) -> Bits.payload (Bits.truncate ty (Bits.Int x))
          | Ast.Cfloat (ty, x) -> Bits.payload (Bits.truncate ty (Bits.Float x))
          | Ast.Cnull -> 0L
        in
        set64 dyn.vals (8 * i) p;
        dyn.producers.(i) <- nil
    | Ast.Var v -> capture_reg t dyn i v (reg_read_energy t v.ty)
  done;
  dyn

and finish_dyn t dyn prev (sources : Ast.value array) =
  let info = t.infos.(dyn.node.Datapath.n_id) in
  resolve_addr t dyn;
  (* hazards: previous instance of the same static instruction must have
     issued (WAW) and older readers of the destination must have issued
     (WAR) before this instance may issue. Each is one pending unit
     here, released when the blocker issues (see [block_war]). *)
  register_hazards t dyn prev info.si_def;
  (* register this instruction as a reader of its register operands;
     parameters are never redefined (SSA), so they cannot be WAR hazards
     and are not registered *)
  for i = 0 to Array.length sources - 1 do
    match sources.(i) with
    | Ast.Var v when not t.is_param.(v.id) -> add_reader t dyn v.id
    | Ast.Var _ | Ast.Const _ -> ()
  done;
  link_live_mem t dyn;
  if dyn.missing = 0 then count_ready t dyn 1;
  try_wake t dyn;
  dyn

(* memory ops join [live_mem] and the ordering index at import *)
and link_live_mem t dyn = if dyn.is_load || dyn.is_store then index_live t dyn

and commit t dyn =
  dyn.st <- Done;
  let dst = dyn.info.si_def_reg in
  if dst >= 0 then begin
    let r = res_off dyn in
    let v = Bits.Payload.truncate dyn.info.si_def_ty (get64 dyn.vals r) in
    set64 dyn.vals r v;
    set64 t.regs (8 * dst) v;
    Stats.add t.s_reg_energy t.write_pj.(dyn.node.Datapath.n_id);
    let c = dyn.dep_head in
    if c <> nil then begin
      dyn.dep_head <- nil;
      deliver_chain t dyn c dyn.dep_head_slot
    end;
    if t.last_writer.(dst) = dyn.id then t.last_writer.(dst) <- nil
  end;
  if traces t Trace.Engine_writeback then
    emit t ~tick:(Kernel.now t.kernel) ~cat:Trace.Engine_writeback
      ~detail:(mnemonic dyn.node.Datapath.instr)
      (("seq", Trace.I (Int64.of_int dyn.seq))
      ::
      (if t.infos.(dyn.node.Datapath.n_id).si_has_result then [ ("val", Trace.I (get64 dyn.vals (res_off dyn))) ]
       else []));
  (* release functional unit state *)
  (let i = dyn.info.si_fu_ix in
   if i >= 0 then begin
     t.in_flight.(i) <- t.in_flight.(i) - 1;
     if not t.specs.(i).Profile.pipelined then t.fu_held.(i) <- t.fu_held.(i) - 1
   end);
  if dyn.is_load || dyn.is_store then
    if dyn.is_load then t.reads_outstanding <- t.reads_outstanding - 1
    else t.writes_outstanding <- t.writes_outstanding - 1;
  t.inflight_total <- t.inflight_total - 1;
  (* control flow *)
  (match dyn.node.Datapath.instr with
  | Ast.Br target -> (
      match t.sched with
      | Some sc -> import_edge t (Schedule.successors sc dyn.node).(0)
      | None -> import_block t ~label:target ~pred:dyn.node.Datapath.block)
  | Ast.Cond_br { if_true; if_false; _ } -> (
      match t.sched with
      | Some sc -> import_edge t (Schedule.successors sc dyn.node).(if dyn.taken then 0 else 1)
      | None ->
          import_block t
            ~label:(if dyn.taken then if_true else if_false)
            ~pred:dyn.node.Datapath.block)
  | Ast.Ret _ -> t.ret_committed <- true
  | _ -> ());
  schedule_tick t ~cycles:0;
  if dyn.retired then recycle t dyn

and can_issue t dyn =
  dyn.missing = 0 && dyn.hazards = 0
  &&
  if dyn.is_load then
    t.reads_outstanding < t.cfg.read_queue_depth && memory_ordering_ok t dyn
  else if dyn.is_store then
    t.writes_outstanding < t.cfg.write_queue_depth && memory_ordering_ok t dyn
  else
    let i = dyn.info.si_fu_ix in
    i < 0
    || units_in_use t i < t.fu_units.(i)
    ||
    (if t.scratch_issued.(i) > 0 then t.cap_refused <- true;
     false)

and issue t dyn =
  if traces t Trace.Engine_issue then begin
    let base = [ ("seq", Trace.I (Int64.of_int dyn.seq)) ] in
    let args =
      if dyn.is_load || dyn.is_store then
        base
        @ [
            ("addr", Trace.I (if dyn.addr_known then get64 dyn.vals (addr_off dyn) else -1L));
            ("size", Trace.I (Int64.of_int dyn.mem_size));
          ]
      else
        match dyn.node.Datapath.fu with
        | Some cls -> base @ [ ("fu", Trace.S (Fu.to_string cls)) ]
        | None -> base
    in
    emit t ~tick:(Kernel.now t.kernel) ~cat:Trace.Engine_issue
      ~detail:(mnemonic dyn.node.Datapath.instr) args
  end;
  dyn.st <- Issued;
  count_ready t dyn (-1);
  t.waiting_count <- t.waiting_count - 1;
  t.inflight_total <- t.inflight_total + 1;
  if dyn.is_load || dyn.is_store then unindex_issued t dyn;
  (* release WAW/WAR hazards held on this instruction *)
  release_hazards t dyn;
  if dyn.is_load then begin
    t.reads_outstanding <- t.reads_outstanding + 1;
    Stats.incr t.s_loads;
    Stats.incr t.s_issued_mem;
    assert dyn.addr_known;
    t.mem.read ~addr:(Int64.to_int (get64 dyn.vals (addr_off dyn))) ~ty:dyn.mem_ty ~dst:dyn.vals
      ~at:(res_off dyn) ~k:t.k_commit ~tag:dyn.id
  end
  else if dyn.is_store then begin
    t.writes_outstanding <- t.writes_outstanding + 1;
    Stats.incr t.s_stores;
    Stats.incr t.s_issued_mem;
    assert dyn.addr_known;
    t.mem.write ~addr:(Int64.to_int (get64 dyn.vals (addr_off dyn))) ~ty:dyn.mem_ty ~src:dyn.vals
      ~at:0 ~k:t.k_commit ~tag:dyn.id
  end
  else begin
    (let i = dyn.info.si_fu_ix in
     if i >= 0 then begin
       let used = units_in_use t i + 1 in
       if used > t.fu_peak.(i) then t.fu_peak.(i) <- used;
       t.scratch_issued.(i) <- t.scratch_issued.(i) + 1;
       t.scratch_dirty <- true;
       Stats.incr t.s_issued_by_class.(i);
       t.in_flight.(i) <- t.in_flight.(i) + 1;
       let spec = t.specs.(i) in
       if not spec.Profile.pipelined then t.fu_held.(i) <- t.fu_held.(i) + 1;
       Stats.add t.s_fu_energy spec.Profile.dynamic_pj;
       if t.fu_fp.(i) then Stats.incr t.s_issued_fp
       else Stats.incr t.s_issued_int
     end
     else Stats.incr t.s_issued_other);
    (try eval_compute t dyn
     with Division_by_zero ->
       raise
         (Runtime_error
            (Printf.sprintf "division by zero in @%s, block %%%s, at: %s"
               t.dp.Datapath.func.Ast.fname dyn.node.Datapath.block
               (Format.asprintf "%a" Pp.instr dyn.node.Datapath.instr))));
    let latency = dyn.node.Datapath.latency in
    if traces t Trace.Engine_execute then
      emit t ~tick:(Kernel.now t.kernel) ~cat:Trace.Engine_execute
        ~detail:(mnemonic dyn.node.Datapath.instr)
        [ ("seq", Trace.I (Int64.of_int dyn.seq)); ("lat", Trace.I (Int64.of_int latency)) ];
    if latency = 0 then commit t dyn
    else begin
      (* it is in flight at the close of each cycle before the one it
         commits in: latency - 1 of them, all active, since every cycle
         with work in flight is *)
      let i = dyn.info.si_fu_ix in
      if i >= 0 && latency > 1 then
        Stats.add t.s_busy_integral.(i) (float_of_int (latency - 1));
      let b = (t.cur_cycle + latency) land t.wheel_mask in
      let tl = t.wheel_tail.(b) in
      if tl = nil then t.wheel_head.(b) <- dyn.id else (inst t tl).wheel_next <- dyn.id;
      t.wheel_tail.(b) <- dyn.id
    end
  end

(* Commit, in issue order, every op on the wheel that completes in
   [cycle]. The onward link is read before [commit], which may recycle
   the instance; a commit never issues, so nothing joins the bucket. *)
and drain_wheel t cycle =
  let b = cycle land t.wheel_mask in
  let s = t.wheel_head.(b) in
  s <> nil
  && begin
       t.wheel_head.(b) <- nil;
       t.wheel_tail.(b) <- nil;
       commit_chain t s;
       true
     end

and commit_chain t s =
  let d = inst t s in
  let nx = d.wheel_next in
  d.wheel_next <- nil;
  commit t d;
  if nx <> nil then commit_chain t nx

(* [n] stall cycles, of the class the wait flags give *)
and charge_stalls t n =
  let n = float_of_int n in
  Stats.add t.s_stall n;
  Stats.add
    (match (t.cyc_wait_load, t.cyc_wait_store, t.cyc_wait_compute) with
    | true, false, false -> t.s_stall_load
    | true, false, true -> t.s_stall_load_compute
    | true, true, true -> t.s_stall_lsc
    | _ -> t.s_stall_other)
    n

(* The FU busy integral is charged at issue (see [issue]). *)
and finalize_cycle t =
  if t.cur_cycle >= 0 && t.cyc_active then begin
    Stats.incr t.s_active;
    if t.cyc_issued then Stats.incr t.s_issue_cycles else charge_stalls t 1;
    if t.cyc_load then Stats.incr t.s_cyc_load;
    if t.cyc_store then Stats.incr t.s_cyc_store;
    if t.cyc_load && t.cyc_store then Stats.incr t.s_cyc_both;
    if t.cyc_fp then Stats.incr t.s_cyc_fp;
    (* the cycle is finalised after time has moved on; stamp its events
       with the cycle-start tick, the canonical sort restores order *)
    if (not t.cyc_issued) && traces t Trace.Engine_stall then begin
      let cause =
        match (t.cyc_wait_load, t.cyc_wait_store, t.cyc_wait_compute) with
        | true, false, false -> "load"
        | true, false, true -> "load+compute"
        | true, true, true -> "load+store+compute"
        | _ -> "other"
      in
      emit t ~tick:(cycle_tick t) ~cat:Trace.Engine_stall ~detail:cause []
    end;
    if traces t Trace.Fu_occupancy then
      for i = 0 to Fu.count - 1 do
        let n = t.in_flight.(i) in
        if n > 0 then
          emit t ~tick:(cycle_tick t) ~cat:Trace.Fu_occupancy ~detail:fu_names.(i)
            [ ("busy", Trace.I (Int64.of_int n)) ]
      done
  end;
  t.cyc_active <- false;
  t.cyc_issued <- false;
  t.cyc_load <- false;
  t.cyc_store <- false;
  t.cyc_fp <- false;
  t.cyc_wait_load <- false;
  t.cyc_wait_store <- false;
  t.cyc_wait_compute <- false

(* issue scan, dynamic mode: walk only the ready list, in program order.
   A zero-latency issue can commit inline and wake dependents; they are
   linked in seq order after the current slot (dependents are always
   younger), so the walk sees them in this same pass — exactly the
   cascaded same-cycle issue the full rescan used to produce. The slot
   is unlinked only after [issue] returns so those inserts anchor
   correctly. *)
and scan_dynamic t =
  let issued_any = ref false in
  let cur = ref (Slot_list.head t.ready) in
  while !cur <> nil do
    let s = !cur in
    let dyn = inst t s in
    if can_issue t dyn then begin
      issue t dyn;
      issued_any := true;
      note_issue t dyn;
      cur := Slot_list.next t.ready s;
      Slot_list.remove t.ready s
    end
    else cur := Slot_list.next t.ready s
  done;
  !issued_any

(* issue scan, compiled mode: merge the three ready lists by minimum seq
   — the visit order is exactly the single-list scan's program order.
   The win is gating: when the read (write) queue is full, every ready
   load (store) would fail [can_issue] without side effects, so the
   whole list is excluded from the merge instead of being re-examined
   one slot at a time. Exclusion is monotone within a pass — outstanding
   counters never decrease between issues because memory completions are
   always delivered through deferred events — so a gated list stays
   gated and no issue opportunity is missed. Wake-ups during an issue
   link into the lists and rewind the affected cursor (see [try_wake]),
   preserving the same-pass cascade. *)
and scan_compiled t =
  let issued_any = ref false in
  t.scan_c <- Slot_list.head t.ready;
  t.scan_l <- Slot_list.head t.ready_l;
  t.scan_s <- Slot_list.head t.ready_s;
  t.scanning <- true;
  let running = ref true in
  while !running do
    let c = t.scan_c in
    let l = if t.reads_outstanding < t.cfg.read_queue_depth then t.scan_l else nil in
    let s = if t.writes_outstanding < t.cfg.write_queue_depth then t.scan_s else nil in
    let cseq = if c = nil then max_int else Slot_list.key t.ready c in
    let lseq = if l = nil then max_int else Slot_list.key t.ready_l l in
    let sseq = if s = nil then max_int else Slot_list.key t.ready_s s in
    let best =
      if cseq <= lseq then if cseq <= sseq then c else s
      else if lseq <= sseq then l
      else s
    in
    if best = nil then running := false
    else begin
      let dyn = inst t best in
      let lst = ready_list t dyn in
      let issued = can_issue t dyn in
      if issued then begin
        issue t dyn;
        issued_any := true;
        note_issue t dyn
      end;
      (* read the successor only after [issue] so same-pass inserts
         directly after the slot are visited *)
      let nx = Slot_list.next lst best in
      if dyn.is_load then t.scan_l <- nx
      else if dyn.is_store then t.scan_s <- nx
      else t.scan_c <- nx;
      if issued then Slot_list.remove lst best
    end
  done;
  t.scanning <- false;
  !issued_any

(* retire issued/committed entries from the reservation head: a fully
   committed instance returns to its pool, an in-flight one is recycled
   by its own commit *)
and retire t =
  while
    (not (Slot_ring.is_empty t.reservation))
    && (inst t (Slot_ring.peek_front t.reservation)).st <> Waiting
  do
    let dyn = inst t (Slot_ring.pop_front t.reservation) in
    if dyn.st = Done then recycle t dyn else dyn.retired <- true
  done

and set_wait_flags t flags =
  if flags land stall_load <> 0 then t.cyc_wait_load <- true;
  if flags land stall_store <> 0 then t.cyc_wait_store <- true;
  if flags land stall_compute <> 0 then t.cyc_wait_compute <- true

(* --- virtual ticks -------------------------------------------------------

   After a tick's scan every ready op has failed [can_issue], and only a
   commit changes that: it delivers operands, releases units, queue
   slots and ordering blockers, or imports a block. So the next tick
   changes nothing but the cycle accounting when no commit can come
   before it: its wheel bucket is empty, no import landed after the scan
   (those entries are unscanned), and no op was refused by an FU cap
   after its class issued (the next cycle's tick clears the counts).
   Such a tick, and every tick after it until the next non-empty wheel
   bucket, is left to the kernel as a virtual tick (see
   {!Kernel.sleep}). Each would have finalised the previous cycle as an
   active stall cycle of the class [stall_flags] gives now, and retired
   the reservation head, so [settle] does that in one step when the
   engine wakes: at the wake tick, or when a memory completion arrives
   first ([wake]). *)

(* [vcycle] is the cycle of the tick that turns real; the virtual ticks
   at cycles [next_cycle] to [vcycle - 1] have passed *)
and settle t vcycle =
  t.asleep <- false;
  if vcycle > t.next_cycle then begin
    let last = vcycle - 1 in
    if last > t.cur_cycle then begin
      finalize_cycle t;
      t.cyc_active <- true;
      set_wait_flags t t.sleep_flags;
      let quiet = last - t.cur_cycle - 1 in
      Stats.add t.s_active (float_of_int quiet);
      charge_stalls t quiet;
      t.cur_cycle <- last
    end
    else begin
      t.cyc_active <- true;
      set_wait_flags t t.sleep_flags
    end;
    (* as the first virtual tick did; only the order in which retired
       instances return to their pools depends on it *)
    retire t
  end

(* a completion arrives while the engine sleeps *)
and wake t =
  let tick = Kernel.wake t.kernel t.sleeper in
  let vcycle = tick / t.period in
  settle t vcycle;
  t.next_cycle <- vcycle

(* the first cycle after [cycle] whose wheel bucket is non-empty, or
   [max_int] if the wheel is empty *)
and next_busy_bucket t cycle =
  let c = ref (cycle + 1) and last = cycle + t.wheel_mask in
  while !c <= last && t.wheel_head.(!c land t.wheel_mask) = nil do
    incr c
  done;
  if !c > last then max_int else !c

(* The pending tick is quiet: nothing can issue in it, and only a
   commit, at the latest from its wheel bucket, can change that. *)
and quiet_next t =
  t.is_running
  && (t.waiting_count > 0 || t.inflight_total > 0)
  && (not t.imported) && (not t.cap_refused)
  && t.wheel_head.(t.next_cycle land t.wheel_mask) = nil

and end_tick t flags =
  let quiet = quiet_next t in
  if quiet && t.may_sleep then begin
    t.asleep <- true;
    t.sleep_flags <- (if flags >= 0 then flags else stall_flags t);
    t.wake_cycle <- next_busy_bucket t t.next_cycle;
    Kernel.sleep t.kernel t.sleeper ~tick:(t.next_cycle * t.period) ~seq:t.res_seq
      ~wake:(if t.wake_cycle = max_int then max_int else t.wake_cycle * t.period)
      t.tick_thunk
  end
  else begin
    if t.cfg.check && quiet then t.shadow <- (if flags >= 0 then flags else stall_flags t);
    Kernel.schedule_reserved t.kernel ~tick:(t.next_cycle * t.period) ~seq:t.res_seq
      t.tick_thunk
  end

(* Check mode keeps every tick: one predicted quiet must issue nothing,
   import nothing, commit nothing from the wheel and classify its stall
   as predicted. *)
and check_shadow t ~drained ~issued_any ~flags =
  let want = t.shadow in
  t.shadow <- -1;
  let flags = if flags >= 0 || issued_any then flags else stall_flags t in
  if drained || issued_any || t.imported || flags <> want then
    raise
      (Invariant_violation
         (Printf.sprintf
            "@%s: cycle %d: a tick predicted quiet drained the wheel=%b, issued=%b, \
             imported=%b, stall flags %d (predicted %d)"
            t.dp.Datapath.func.Ast.fname t.tick_cycle drained issued_any t.imported flags want))

(* The wheel drains first, while [tick_scheduled] still holds: the
   commits run where their kernel events used to (each was queued
   before the tick of its cycle), their [schedule_tick ~cycles:0] finds
   this tick pending, and [finalize_cycle] sees the previous cycle's
   in-flight counts already released. A tick woken at its wake tick
   first settles the virtual ticks before it. *)
and tick t =
  if t.asleep then begin
    settle t t.wake_cycle;
    t.next_cycle <- t.wake_cycle
  end;
  let now_cycle = t.next_cycle in
  t.tick_cycle <- now_cycle;
  let drained = drain_wheel t now_cycle in
  t.tick_scheduled <- false;
  t.in_tick <- true;
  let flags = ref (-1) in
  if t.is_running then begin
    if now_cycle <> t.cur_cycle then begin
      finalize_cycle t;
      t.cur_cycle <- now_cycle;
      if t.scratch_dirty then begin
        Array.fill t.scratch_issued 0 Fu.count 0;
        t.scratch_dirty <- false
      end
    end;
    retire t;
    t.cap_refused <- false;
    let issued_any = if t.sched != None then scan_compiled t else scan_dynamic t in
    if t.cfg.check then check_cycle t;
    t.imported <- false;
    import_pending t;
    let work_pending = t.waiting_count > 0 || t.inflight_total > 0 in
    if work_pending || issued_any then begin
      t.cyc_active <- true;
      if not issued_any then begin
        flags := stall_flags t;
        if t.cfg.check then check_stall_flags t !flags;
        set_wait_flags t !flags
      end
    end;
    if t.shadow >= 0 then check_shadow t ~drained ~issued_any ~flags:!flags;
    if t.waiting_count > 0 || t.inflight_total > 0 || t.pending_import != No_import then
      schedule_tick t ~cycles:1
    else if t.ret_committed then begin
      finalize_cycle t;
      t.cur_cycle <- -1;
      t.is_running <- false;
      t.ret_committed <- false;
      Stats.add t.s_cycles (float_of_int (now_cycle - t.start_cycle));
      if t.cfg.check then check_completion t;
      match t.on_finish with
      | Some k ->
          t.on_finish <- None;
          k t.ret_value
      | None -> ()
    end
  end;
  t.in_tick <- false;
  if t.tick_scheduled then end_tick t !flags

let start t ~args ~on_finish =
  if t.is_running then invalid_arg "Engine.start: already running";
  let params = t.dp.Datapath.func.Ast.params in
  (try
     List.iter2
       (fun (p : Ast.var) v -> set64 t.regs (8 * p.id) (Bits.payload (Bits.truncate p.ty v)))
       params args
   with Invalid_argument _ ->
     invalid_arg
       (Printf.sprintf "Engine.start: %s expects %d arguments"
          t.dp.Datapath.func.Ast.fname (List.length params)));
  if t.k_commit == unset_k then begin
    t.tick_thunk <- (fun () -> tick t);
    t.k_commit <-
      (fun id ->
        if t.asleep then wake t;
        t.shadow <- -1;
        commit t (inst t id))
  end;
  t.is_running <- true;
  t.u_load <- 0;
  t.u_comp <- 0;
  t.r_load <- 0;
  t.r_store <- 0;
  t.r_fu <- 0;
  t.ret_committed <- false;
  t.ret_value <- None;
  t.on_finish <- Some on_finish;
  t.start_cycle <- Clock.current_cycle_i t.clock;
  (* dynamic instructions are numbered per invocation: [seq] is program
     order within one run of the function, and a fast-forwarded
     invocation must see the same numbering as an uninterrupted one *)
  t.next_seq <- 0;
  Array.fill t.last_writer 0 (Array.length t.last_writer) nil;
  Array.fill t.last_instance 0 (Array.length t.last_instance) nil;
  match t.sched with
  | Some sc -> import_edge t (Schedule.entry sc)
  | None -> import_block t ~label:(Ast.entry_block t.dp.Datapath.func).Ast.label ~pred:"<entry>"

let fu_peak t cls = t.fu_peak.(Fu.index cls)

let stats t =
  let int s = int_of_float (Stats.value s) in
  let per_class of_value scalars =
    List.filter_map
      (fun cls ->
        let v = Stats.value scalars.(Fu.index cls) in
        if v > 0.0 then Some (cls, of_value v) else None)
      Fu.all
  in
  {
    cycles = Int64.of_float (Stats.value t.s_cycles);
    dynamic_instructions = int t.s_dyn;
    loads_issued = int t.s_loads;
    stores_issued = int t.s_stores;
    active_cycles = int t.s_active;
    issue_cycles = int t.s_issue_cycles;
    stall_cycles = int t.s_stall;
    stall_load_only = int t.s_stall_load;
    stall_load_compute = int t.s_stall_load_compute;
    stall_load_store_compute = int t.s_stall_lsc;
    stall_other = int t.s_stall_other;
    cycles_with_load = int t.s_cyc_load;
    cycles_with_store = int t.s_cyc_store;
    cycles_with_load_and_store = int t.s_cyc_both;
    cycles_with_fp = int t.s_cyc_fp;
    issued_fp = int t.s_issued_fp;
    issued_int = int t.s_issued_int;
    issued_mem = int t.s_issued_mem;
    issued_other = int t.s_issued_other;
    fu_busy_integral = per_class Fun.id t.s_busy_integral;
    issued_by_class = per_class int_of_float t.s_issued_by_class;
    dynamic_fu_energy_pj = Stats.value t.s_fu_energy;
    dynamic_reg_energy_pj = Stats.value t.s_reg_energy;
  }
