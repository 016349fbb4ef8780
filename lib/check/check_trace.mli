(** Deterministic trace scenarios backing the golden-trace regression
    suite.

    Each scenario is a tiny, fully deterministic workload exercising one
    memory path of the timing stack — a scratchpad vector add, the same
    kernel behind a private cache, a DMA block copy through a shared
    SPM, and a fast-forwarded vector add restored from a roadmark
    snapshot (pinning the restore path and roadmark alignment).
    [capture] runs a scenario under a fresh sink and returns the
    canonical text trace; the golden files under [test/golden/] are
    blessed copies of exactly this output, so any engine or memory
    timing change shows up as a diff. *)

val vecadd_workload : Salam_workloads.Workload.t
(** 4-element f64 vector add with exact-in-binary inputs. *)

val names : string list

val capture : ?sleeping:bool -> string -> string
(** Run a scenario under a fresh sink recording every category and
    return the canonical text trace; the single-engine vecadd scenarios
    run with the engine's check mode on. With [sleeping], the sink
    records every category but
    {!Salam_engine.Engine.per_cycle_categories} and check mode stays
    off, so the engines sleep through their quiet cycles. Raises
    [Invalid_argument] on an unknown name and [Failure] if the scenario
    computes a wrong result. *)
