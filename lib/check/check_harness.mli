(** Engine-side runner for the differential validation harness.

    A thin wrapper over {!Salam.simulate} — the oracles check the very
    system builder users run — with the engine's check mode forced on,
    handing back everything the oracles compare against the interpreter:
    the live backing store, the buffer base addresses, the return value
    and the engine statistics. *)

type run = {
  memory : Salam_ir.Memory.t;  (** the system backing store, post-run *)
  bases : int64 array;  (** buffer base addresses, in buffer order *)
  ret : Salam_ir.Bits.t option;
  stats : Salam_engine.Engine.run_stats;
}

val run_engine :
  ?config:Salam.Config.t ->
  ?func:Salam_ir.Ast.func ->
  ?trace:Salam_obs.Trace.sink ->
  Salam_workloads.Workload.t ->
  run
(** One invocation of [Salam.simulate ?config] (default
    {!Salam.Config.default}) with [engine.check = true]: the memory
    attachment, dataset seed, engine mode and hardware profile all come
    from [config]. [?func] substitutes an already-compiled (possibly
    deliberately mutated) function for the workload's kernel — the
    fuzzer uses this to plant bugs and to bypass the per-name compile
    cache. [?trace] installs a trace sink on the run's private system.
    Raises [Engine.Invariant_violation] if a timing or cache invariant
    breaks and [Engine.Runtime_error] if the simulated program faults. *)
