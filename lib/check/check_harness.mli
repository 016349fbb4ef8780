(** Engine-side runner for the differential validation harness.

    Builds the same system topology as [Salam.simulate] (fabric, cluster,
    accelerator, memory attachment) but with the engine's timing-invariant
    checker enabled, and hands back everything the oracle needs to
    compare against the interpreter: the live backing store, the buffer
    base addresses, the return value, the engine statistics and (for
    cache configurations) the cache handle with its own end-of-run
    invariant report. *)

type memory_kind =
  | Spm  (** private scratchpad holding every kernel buffer *)
  | Cache of { size : int; ways : int }  (** private cache over the fabric *)
  | Dram  (** no local memory: straight to the fabric *)

type run = {
  memory : Salam_ir.Memory.t;  (** the system backing store, post-run *)
  bases : int64 array;  (** buffer base addresses, in buffer order *)
  ret : Salam_ir.Bits.t option;
  stats : Salam_engine.Engine.run_stats;
  cache : Salam_mem.Cache.t option;
  cache_invariant_errors : string list;
      (** [Cache.invariant_errors] at quiescence; empty for SPM/DRAM *)
}

val run_engine :
  ?memory_kind:memory_kind ->
  ?seed:int64 ->
  ?mode:Salam_engine.Engine.mode ->
  ?func:Salam_ir.Ast.func ->
  ?trace:Salam_obs.Trace.sink ->
  ?profile:Salam_hw.Profile.t ->
  Salam_workloads.Workload.t ->
  run
(** Run the workload through the full timing stack with
    [Engine.config.check = true]. [?mode] selects the engine's scheduling
    implementation (default: the engine's own default). [?func]
    substitutes an already-compiled (possibly deliberately mutated)
    function for the workload's kernel — the fuzzer uses this to plant
    bugs and to bypass the per-name compile cache. [?trace] installs a
    trace sink on the run's private system. [?profile] elaborates the
    datapath under a non-default hardware characterization (e.g. a
    [Salam_config] database row at another cycle time). Raises
    [Engine.Invariant_violation] if a timing invariant breaks mid-run and
    [Engine.Runtime_error] if the simulated program faults. *)
