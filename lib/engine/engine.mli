(** The dynamic LLVM runtime engine — gem5-SALAM's execute-in-execute
    core.

    The engine materialises the static datapath's basic blocks into a
    reservation queue at run time (the dynamic half of the dual-CDFG
    design). Each dynamic instruction:

    - captures constant and already-committed operands when it is
      imported, and registers a value dependency on every producer still
      in flight (found by searching the reservation and in-flight queues,
      newest first);
    - waits for write-after-write (the previous dynamic instance of the
      same static instruction must have issued) and write-after-read
      (older readers of its destination register must have issued)
      hazards, mirroring the checks described in Sec. III-B of the paper;
    - issues when its functional unit has a free slot (pipelined units
      accept one op per cycle per unit; unpipelined units are held until
      commit), computing its result immediately and committing it after
      the unit's latency;
    - memory operations instead enter the asynchronous read/write queues
      and are forwarded to the communications interface, committing when
      the response arrives. Ordering against older memory operations is
      enforced by address disambiguation (configurable, with a
      conservative fallback while addresses are unresolved).

    Terminators evaluate like single-cycle ops and trigger the import of
    the successor block, which is what produces loop pipelining: the next
    iteration's instructions enter the reservation queue while the
    current iteration's long-latency operations are still in flight.

    The engine has two scheduling implementations selected by
    [config.mode], both producing bit-identical results (same statistics,
    trace event stream and memory contents):

    - [Dynamic] derives every import and issue decision from the IR at
      run time — the reference implementation;
    - [Compiled] (the default) runs the {!Schedule} pre-pass once per
      datapath and replays its dense per-(block, predecessor) templates:
      imports walk precompiled rows, and the issue scan merges three
      seq-sorted ready lists (compute / loads / stores) so a full read or
      write queue excludes the whole corresponding list instead of
      re-examining blocked entries one at a time. Both modes share the
      per-instruction issue checks (disambiguation walks, queue depths,
      branch evaluation). *)

(** Scheduling implementation; see the module documentation. *)
type mode = Dynamic | Compiled

val mode_to_string : mode -> string

type config = {
  read_queue_depth : int;  (** outstanding loads *)
  write_queue_depth : int;  (** outstanding stores *)
  reservation_slots : int;  (** max dynamic instructions queued *)
  disambiguate_memory : bool;
      (** when false, memory operations issue strictly in program order *)
  enforce_waw : bool;
      (** require the previous instance of a static instruction to have
          issued (paper Sec. III-B); disable only for ablation studies *)
  enforce_war : bool;
      (** require older readers of the destination register to have
          issued; disable only for ablation studies *)
  check : bool;
      (** run the timing-invariant checker: per-cycle structural checks
          (per-class issue count and held units never exceed allocated
          units); on every stall cycle, a cross-check of the
          counter-maintained stall classification against a from-scratch
          walk of the reservation queue; and end-of-run checks (queues
          drained, in-flight and stall-classification counters zero,
          stall breakdown sums to stall cycles). Checks are read-only —
          they never perturb scheduling — and raise {!Invariant_violation}
          on failure. Off by default. *)
  mode : mode;  (** scheduling implementation; [Compiled] by default *)
}

val default_config : config

exception Invariant_violation of string
(** An internal timing invariant failed (only raised with
    [config.check = true]). The message names the function and the
    violated property (and the cycle, for per-cycle checks). *)

exception Runtime_error of string
(** The simulated program faulted (e.g. division by zero). The message
    locates the fault: function, basic block and instruction. *)

(** How the engine reaches memory; implemented by the communications
    interface. Values travel as raw payloads ({!Salam_ir.Bits.Payload})
    in the engine's value slots, so nothing is boxed on the way, and
    addresses as native ints. A request is completed by calling [k tag]
    when the timing model is done with it: the engine passes one
    preallocated [k] for every request and the issuing instance's slot
    as [tag], so an access allocates no closure. A read leaves the
    loaded value's payload in the 8 bytes of [dst] at [at] before it
    completes; a write takes its value's payload from the 8 bytes of
    [src] at [at] when it is called. {!Salam_ir.Memory.load_into} and
    {!Salam_ir.Memory.store_from} move such payloads. *)
type mem_iface = {
  read :
    addr:int -> ty:Salam_ir.Ty.t -> dst:Bytes.t -> at:int -> k:(int -> unit) -> tag:int -> unit;
  write :
    addr:int -> ty:Salam_ir.Ty.t -> src:Bytes.t -> at:int -> k:(int -> unit) -> tag:int -> unit;
}

type t

(** Aggregated run statistics; see {!stats}. *)
type run_stats = {
  cycles : int64;
  dynamic_instructions : int;
  loads_issued : int;
  stores_issued : int;
  (* per-cycle scheduling mix *)
  active_cycles : int;  (** cycles with work outstanding *)
  issue_cycles : int;  (** cycles that issued at least one operation *)
  stall_cycles : int;
  stall_load_only : int;  (** stalled cycles waiting only on loads *)
  stall_load_compute : int;  (** loads + computation outstanding *)
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
  fu_busy_integral : (Salam_hw.Fu.cls * float) list;
      (** sum over cycles of in-flight ops per class; divide by cycles x
          allocated units for mean occupancy *)
  issued_by_class : (Salam_hw.Fu.cls * int) list;
      (** dynamic operation count per functional-unit class *)
  dynamic_fu_energy_pj : float;
  dynamic_reg_energy_pj : float;
}

val per_cycle_categories : Salam_obs.Trace.category list
(** [Engine_stall] and [Fu_occupancy]: the trace lines an engine emits
    for every active cycle, quiet or not. An unchecked engine sleeps
    through the ticks it can prove quiet (see {!create}) unless its
    kernel's sink records one of these. *)

val create :
  Salam_sim.Kernel.t ->
  Salam_sim.Clock.t ->
  ?config:config ->
  stats:Salam_sim.Stats.group ->
  datapath:Salam_cdfg.Datapath.t ->
  mem:mem_iface ->
  unit ->
  t
(** Functional-unit counts come from [datapath.fu_alloc]: the static
    elaboration alone fixes the inventory the engine schedules on.

    Every counter of {!run_stats} is a scalar registered in [stats],
    named after its field; the per-class ones sit in the child groups
    [issued_by_class] and [fu_busy_integral], one scalar per
    {!Salam_hw.Fu.cls} named by {!Salam_hw.Fu.to_string}. Every counter
    starts at zero: [System.restore] only accepts a freshly built
    system, so a restored run's statistics cover only its own epoch.

    The engine ticks once per cycle while it has work, and again within
    a cycle after a zero-latency commit. A tick that provably issues,
    imports and commits nothing is left to the kernel as a virtual tick
    ({!Salam_sim.Kernel.sleep}), and the skipped cycles are charged when
    the next wheel commit or memory completion wakes the engine; every
    statistic and every other event is as with real ticks. With
    [config.check], or a sink recording {!per_cycle_categories}, every
    tick is real; check mode then asserts each one it predicted quiet
    was. *)

val start : t -> args:Salam_ir.Bits.t list -> on_finish:(Salam_ir.Bits.t option -> unit) -> unit
(** Begin execution of the datapath's function with the given arguments
    (pointers and scalars, as set up in the accelerator's MMRs). The
    engine may be restarted after it finishes. *)

val running : t -> bool

val stats : t -> run_stats
(** The counters of the [stats] group given to {!create}: everything
    accumulated since {!create}, across restarts. *)

val fu_peak : t -> Salam_hw.Fu.cls -> int
(** The most units of the class any one FU issue found in use, itself
    included, since {!create}: the largest allocation the run's issue
    decisions ever needed. The allocation reaches the engine only
    through the unit-count compare before an FU issue, so a run whose
    allocation of every class lies between this and the run's own makes
    the same decisions. 0 for a class that never issued. *)

val check_completion : t -> unit
(** The end-of-run invariants of [config.check]: queues drained (the
    completion wheel included), in-flight and stall-classification
    counters zero, stall breakdown summing to stall cycles. A checked
    run calls this when it finishes; it is exposed so a test can probe
    an engine stopped mid-run. Raises {!Invariant_violation} naming
    every failed property. *)

val add_ordered_range : t -> base:int64 -> size:int -> unit
(** Mark an address window as device/stream memory: accesses that fall
    in any ordered window issue in program order relative to every other
    ordered access, which is what keeps FIFO data in raster order. *)

val in_ordered_range : t -> addr:int64 -> bool
(** Whether [addr] falls inside any registered ordered window. *)
