(** Snapshot oracle: proves fast-forwarded runs bit-identical to
    uninterrupted ones.

    For each (workload, memory attachment, engine mode, roadmark) point
    it runs the same multi-invocation schedule three ways — detailed
    throughout, detailed-capture-then-restore, and
    interpreter-warm-up-then-restore — and demands byte-equal final
    memory, exactly matching post-roadmark statistics (end-of-run minus
    roadmark probe; counters exact, energy floats within relative
    tolerance), an exactly matching post-roadmark trace stream at the
    same absolute ticks, and byte-equal roadmark memory between the
    warm-up and capture snapshots. *)

val check_fast_forward :
  ?config:Salam.Config.t ->
  ?func:Salam_ir.Ast.func ->
  ?roadmark:int ->
  ?invocations:int ->
  Salam_workloads.Workload.t ->
  (unit, string) result
(** Run all legs for one point: every journey simulates [?config]
    (default {!Salam.Config.default}) with [engine.check] forced on.
    Defaults: [roadmark = 1], [invocations = 2]. [?func] substitutes an
    already-compiled kernel, bypassing the name-keyed compile cache —
    required for generated fuzz kernels. Raises [Invalid_argument]
    unless [1 <= roadmark < invocations]; every failure of the checked
    system itself is reported as [Error], through {!Check_oracle.guard}. *)

val check_all :
  ?config:Salam.Config.t ->
  ?roadmark:int ->
  ?invocations:int ->
  Salam_workloads.Workload.t list ->
  Check_oracle.report list
(** The matrix: every workload under [?config] in both engine modes,
    the mode replacing the config's. A point's subject names the
    workload, the memory attachment, the mode and [ff@roadmark/invocations]. *)
