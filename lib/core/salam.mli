(** gem5-SALAM reproduction — one-call simulation API.

    This is the library's front door for single-accelerator studies: it
    assembles a full system (fabric, cluster, accelerator, memory
    attachment) around a {!Salam_workloads.Workload.t}, runs it to
    completion, checks the output against the workload's golden model
    and returns timing, power, area and occupancy results. The
    lower-level layers ([Salam_soc], [Salam_engine], ...) stay available
    for multi-accelerator topologies like Fig 16.

    {[
      let result = Salam.simulate (Salam_workloads.Gemm.workload ()) in
      Format.printf "%Ld cycles, correct=%b@." result.cycles result.correct
    ]} *)

module Config : sig
  type memory =
    | Spm of { read_ports : int; write_ports : int; banks : int; latency : int }
        (** private scratchpad holding every kernel buffer *)
    | Cache of { size : int; line_bytes : int; ways : int; hit_latency : int }
        (** private cache in front of the system fabric *)
    | Dram_direct  (** no local memory: straight to the fabric *)

  type t = {
    clock_mhz : float;
    memory : memory;
    fu_limits : (Salam_hw.Fu.cls * int) list;
        (** per-class unit caps (a non-positive cap is ignored) applied
            by the static CDFG elaboration; the engine schedules on the
            capped inventory *)
    engine : Salam_engine.Engine.config;
    seed : int64;
    hw : Salam_hw.Profile.t;
        (** hardware characterization the datapath elaborates under —
            {!Salam_hw.Profile.default_40nm} or a profile looked up in a
            loadable [Salam_config] database *)
  }

  val default : t
  (** 500 MHz, SPM with 2 read / 1 write ports, unconstrained units,
      the compiled-in 40 nm profile at 2 ns. *)

  val memory_name : t -> string
  (** ["spm"], ["cache"] or ["dram"]: the memory attachment's kind. *)
end

type power_breakdown = {
  dynamic_fu_mw : float;
  dynamic_reg_mw : float;
  dynamic_mem_read_mw : float;
  dynamic_mem_write_mw : float;
  static_fu_mw : float;
  static_reg_mw : float;
  static_mem_mw : float;
}
(** The seven components of the paper's Fig 4. The memory terms are the
    SPM's or the cache's; zero on DRAM, whose energy is not modelled. *)

val total_mw : power_breakdown -> float

val datapath_mw : power_breakdown -> float
(** The FU and register terms (Fig 11's datapath power). *)

type mem_report = {
  cacti : Salam_hw.Cacti_lite.result;
  reads : int;  (** array accesses, in the Cacti record's words *)
  writes : int;
}
(** What an SPM or a cache reports for power, through the same three
    calls ([cacti], [reads], [writes]) on either. *)

type result = {
  name : string;
  cycles : int64;
  seconds : float;  (** simulated time *)
  correct : bool;
  ret : Salam_ir.Bits.t option;  (** the last invocation's return value *)
  bases : int64 array;  (** buffer base addresses, in buffer order *)
  stats : Salam_engine.Engine.run_stats;
  power : power_breakdown;
  area_um2 : float;  (** datapath + local memory *)
  fu_allocated : (Salam_hw.Fu.cls * int) list;
      (** functional units instantiated per class by the static CDFG
          elaboration (after [Config.fu_limits]), sorted by class — the
          denominator {!fu_occupancy} uses by default *)
  fu_peak : (Salam_hw.Fu.cls * int) list;
      (** per class that issued, sorted by class: the most units any one
          issue found in use, itself included
          ({!Salam_engine.Engine.fu_peak}) — the allocation the run
          needed, and the witness {!derive} checks *)
  mem_report : mem_report option;  (** the SPM's or the cache's; [None] on DRAM *)
  hw : Salam_hw.Profile.t;
      (** the profile this run elaborated under — occupancy and power
          derivations must use it, never a compiled-in default *)
  spm_accesses : (int * int) option;  (** reads, writes *)
  cache_hits_misses : (int * int) option;
  wall_seconds : float;  (** host time spent simulating *)
  kernel_events : int;
      (** events the system's event kernel executed, over every detailed
          invocation this call ran *)
  sim_stats : (string * float) list;
      (** the system statistics tree flattened to dotted-path/value
          pairs, in registration order — the source for stats.txt dumps *)
}

type snapshot = {
  snap_workload : string;
  snap_memory : string;  (** "spm", "cache" or "dram" *)
  snap_invocations : int;  (** complete invocations the snapshot covers *)
  snap_bases : int64 array;
  snap_image : Salam_ir.Memory.snapshot;
      (** the backing memory: buffers, MMRs and allocation brk *)
  snap_tick : int64;  (** the tick the restored system resumes at *)
}
(** Architectural state of the standard single-accelerator system at a
    roadmark — the boundary after [snap_invocations] complete kernel
    invocations: one memory image and a tick. Nothing else needs
    saving: a snapshot is taken only on an idle kernel (every device
    drained) and restored only into a freshly built system (cold
    caches, free channels, zero statistics). Restores only into an
    identically shaped system (same workload, same memory kind, same
    buffer bases); timing knobs (ports, banks, cache geometry, clock,
    FU limits, engine mode) may differ, which is what lets one snapshot
    seed many design points. Snapshots live in memory only; there is no
    file format. *)

type probe = {
  pr_tick : int64;  (** the aligned boundary tick *)
  pr_sim_stats : (string * float) list;
  pr_trace_events : int;  (** events emitted up to the boundary *)
}
(** Observation of an uninterrupted run at an invocation boundary; the
    snapshot oracle subtracts it from end-of-run totals to compare
    against a fast-forwarded run's post-roadmark statistics. *)

val model_epoch : int
(** The timing model's version. Every design-point fingerprint hashes
    it first, so a stored answer keys to the model that measured it;
    bump it with any change that moves a simulated figure (1: FU caps
    hold per cycle, not per tick; 2: an unpipelined op issued this cycle
    counts once against its class's cap; 3: a cache's array reads and
    writes count in its dynamic memory power). A figure golden re-blessed
    without a bump fails the "figure goldens pinned to the model epoch"
    test. *)

val roadmark_name : int -> string
(** ["start"] for 0, ["after-invocation-k"] otherwise. *)

val simulate :
  ?config:Config.t ->
  ?trace:Salam_obs.Trace.sink ->
  ?func:Salam_ir.Ast.func ->
  ?invocations:int ->
  ?from:snapshot ->
  ?probe:int * (probe -> unit) ->
  ?inspect:(Salam_ir.Memory.t -> unit) ->
  Salam_workloads.Workload.t ->
  result
(** [?trace] installs a system-wide trace sink before any component is
    built; every timing component then emits structured events into it
    (see {!Salam_obs.Trace}). Omitted, tracing is off and costs one
    untaken branch per emission site.

    [?func] overrides the compiled kernel — required when distinct
    generated kernels share a workload name (the compile cache is
    name-keyed).

    [?invocations] (default 1) runs the kernel that many times
    back-to-back on the same buffers. Each inter-invocation boundary is
    a synchronization point: the kernel advances to the next clock
    hyperperiod multiple and the cache (if any) is flushed, so a run
    fast-forwarded to any boundary is bit-identical to an uninterrupted
    one from there on. Single-invocation runs never hit a boundary and
    are byte-for-byte the pre-fast-forward behaviour.

    [?from] restores a snapshot (see {!warm_up}/{!capture}) instead of
    initializing buffers, then runs the remaining
    [invocations - snap_invocations] detailed invocations. Statistics,
    cycles and the trace stream cover only the post-roadmark epoch.
    Raises [Invalid_argument] on workload/memory-kind/layout mismatch.

    [?probe:(k, f)] calls [f] once at the boundary after invocation [k]
    of an uninterrupted run.

    [?inspect] receives the system backing store after the last
    invocation completes, before the result is assembled — the
    differential oracles use it to compare final memory images byte for
    byte.

    With [config.engine.check] on, the engine checks its timing
    invariants as it runs (see {!Salam_engine.Engine.config}) and, for a
    cache attachment, [simulate] checks {!Salam_mem.Cache.invariant_errors}
    once the last invocation completes, then {!check_energy} on the
    result. Each failure raises {!Salam_engine.Engine.Invariant_violation};
    a cache violation names the cache. Check mode is read-only: cycles,
    statistics and traces match an unchecked run. *)

val check_energy : result -> unit
(** The energy oracle: [dynamic_fu_mw] must equal [stats.issued_by_class]
    times the profile's energies, and each dynamic memory term
    [mem_report]'s reads or writes times its Cacti energy, to a relative
    1e-9, or {!Salam_engine.Engine.Invariant_violation} names the term.
    The register term is the engine's own counter, not recomputed. *)

val derive : config:Config.t -> Salam_workloads.Workload.t -> result -> result option
(** [derive ~config w r] answers [simulate ~config w] (with the
    invocations and snapshot [r] ran under) from [r], a run of [w] whose
    config differs from [config] in [fu_limits] only, without
    simulating. It re-elaborates the datapath under [config.fu_limits]
    and returns [Some] when, for every class, [r]'s peak
    ([fu_peak]) is at most the new allocation and the new allocation at
    most [r]'s: the engine then makes every issue decision as [r]'s run
    did, so cycles, statistics and every counter are [r]'s and only
    the allocation's terms change ([fu_allocated], [static_fu_mw] and
    the datapath part of [area_um2]). The result equals that
    simulation's in every field but [wall_seconds], which is the
    derivation's own host time. [None] when a cap would bind: simulate
    that config. *)

val warm_up :
  ?config:Config.t ->
  ?func:Salam_ir.Ast.func ->
  invocations:int ->
  Salam_workloads.Workload.t ->
  snapshot
(** Reach the roadmark through the functional interpreter — no events,
    no timing — and snapshot the backing memory at tick 0. A
    one-invocation warm-up is 5–19x faster than one {!simulate}
    invocation of the same function
    (medians of 21 interleaved runs on a 2-vCPU x86-64 VM: 5.3–6.2x on
    gemm16 u16/j8, where building the system is most of the warm-up;
    16.8–18.6x on md_grid). The resulting state is
    bit-identical to {!capture}'s (enforced by the snapshot oracle):
    memory contents, allocation brk, and MMR end-state all mirror a
    detailed run's. [invocations = 0] snapshots the freshly initialized
    state. *)

val capture :
  ?config:Config.t ->
  ?trace:Salam_obs.Trace.sink ->
  ?func:Salam_ir.Ast.func ->
  invocations:int ->
  Salam_workloads.Workload.t ->
  snapshot
(** Reach the same roadmark through the detailed engine. Slower than
    {!warm_up}; exists to validate round-trips and warm-up fidelity. *)

val default_domains : unit -> int
(** Sweep fan-out width: the worker count {!parallel_map} and
    {!simulate_jobs} use across design points when [?domains] is
    omitted. The [SALAM_DOMAINS] environment variable if set (must be
    >= 1), otherwise [Domain.recommended_domain_count ()]. Each
    simulation itself always runs on one sequential event kernel.

    The variable is read on each call, never at module initialisation:
    a sweep reads it when it starts ([salam_dse run] before opening
    the store, [salam_served serve] before binding its socket,
    each only when no explicit width is given). A set value that is
    not a positive integer raises
    [Invalid_argument "SALAM_DOMAINS: \"<value>\" is not a positive
    integer"]; both CLIs print that message and exit 1 before
    simulating, and [--version] and [--help] never read it. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] evaluates [f] on every element using a pool of
    OCaml 5 domains, preserving input order in the result. Elements are
    claimed dynamically, so uneven work does not idle the pool. With
    [domains <= 1] (or fewer than two elements) it degenerates to
    [List.map]. If any application raises, the first such exception (in
    input order) is re-raised after all workers finish. *)

type job = {
  job_config : Config.t;
  job_workload : Salam_workloads.Workload.t;
  job_invocations : int;
  job_from : snapshot option;
}

val job : ?invocations:int -> ?from:snapshot -> Config.t -> Salam_workloads.Workload.t -> job
(** A batch entry; [?from] makes it a fast-forwarded run. Snapshots are
    immutable values and safe to share across every job in a batch —
    the interpret-once/simulate-many pattern. *)

val simulate_jobs : ?domains:int -> job list -> result list
(** Run independent simulations across domains — the design-space-sweep
    fast path. Kernels are compiled (and memoised) sequentially up
    front; each simulation then builds its own private system, so jobs
    share no mutable state. Results come back in job order and are
    deterministic: per-job cycle counts and statistics are identical to
    calling {!simulate} sequentially. *)

val fu_occupancy : result -> Salam_hw.Fu.cls -> float
(** Mean fraction of the class's units busy per active cycle, over the
    class's entry in [result.fu_allocated]: the inventory the static
    CDFG actually instantiated. *)
