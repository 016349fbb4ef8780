(** The exploration driver: strategies over a space, answered from the
    store when possible and from domain-parallel simulation when not.

    Every strategy works on the deduplicated enumeration of the given
    spaces. Evaluation batches all store misses through
    [Salam.simulate_jobs], so a cold sweep fans out across OCaml 5
    domains while a warm sweep touches no simulator at all; either way
    the per-point results are bit-identical (the batch API is pinned
    deterministic, and the store round-trips measurements exactly).
    Progress is emitted on an optional {!Salam_obs.Trace} sink under the
    [Dse_progress] category: one event per point (detail [hit] or
    [sim]) and one per search round, ticked by evaluation order. *)

type target = {
  workload_id : Point.t -> string;
      (** stable identity for fingerprints — must change whenever the
          built workload's behaviour changes (e.g. unroll factors) *)
  build : Point.t -> Salam_workloads.Workload.t;
}

val gemm_target : ?n:int -> unit -> target
(** The paper's DSE vehicle: [n x n] GEMM whose k-/j-loop unroll factors
    come from the point ([unroll]/[junroll] axes). *)

val suite_target : string -> (target, string) result
(** A fixed suite workload looked up by name prefix. The point's
    [unroll]/[junroll] knobs are *not* consumed — do not sweep them
    against a suite target (points differing only there would simulate
    identically under distinct fingerprints). *)

type strategy =
  | Exhaustive  (** every valid point, enumeration order *)
  | Random of { samples : int; seed : int64 }
      (** uniform sample without replacement; deterministic per seed *)
  | Pareto_walk of { seeds : int; rounds : int; seed : int64 }
      (** seeded-random start, then up to [rounds] hill-climbing steps:
          each round evaluates every unevaluated single-knob mutation of
          the current front, stopping early when the front's
          neighbourhood is exhausted *)

type report = {
  measurements : Measurement.t list;  (** evaluation order *)
  front : Measurement.t list;
  dominated : Measurement.t list;
  evaluated : int;  (** distinct points evaluated = hits + simulated *)
  cache_hits : int;
  simulated : int;
  candidates : int;  (** size of the deduplicated enumeration *)
  snapshots : int;
      (** warm-up snapshots taken under [?fast_forward] — one per
          (workload identity, memory kind), shared by every timing
          configuration of that pair *)
}

val summary_line : report -> store:Store_shard.t option -> string
(** The machine-readable one-liner printed by CLI/CI:
    ["\[dse\] candidates=.. evaluated=.. cache_hits=.. simulated=.. front=.. snapshots=.. store=.."]. *)

val identity : workload:string -> invocations:int -> fast_forward:int option -> string
(** The measured fingerprint identity: the workload id, suffixed
    [#invN] when [invocations > 1] and [#ffK] under fast-forward. The
    store keys measurements by [Point.fingerprint ~workload:(identity
    ...)], and the salam_served daemon computes the very same key. *)

val run :
  ?store:Store_shard.t ->
  ?trace:Salam_obs.Trace.sink ->
  ?domains:int ->
  ?fast_forward:int ->
  ?invocations:int ->
  ?remote:(Point.t list -> (Measurement.t * string) list) ->
  ?tick_domain:int ->
  target:target ->
  strategy:strategy ->
  Space.t list ->
  report
(** [?remote] replaces the store-plus-local-simulation evaluator with an
    external one (the salam_served client): each batch of points is
    handed over whole, and the answers come back in request order as
    [(measurement, served)] pairs where [served] is ["hit"] for a
    store-warm answer and anything else for a fresh (or deduplicated)
    simulation. Answers are checked against the locally computed
    fingerprints — a mismatched or short reply raises [Failure].
    [?store], [?domains] and [?fast_forward] are ignored under
    [?remote]; the daemon owns all of them.

    [?domains] fans the batch out across design points (one domain per
    point); each point runs on one sequential event kernel, so results
    are bit-identical for any value.

    [?tick_domain] (default 0, must fit in 31 bits) namespaces the
    progress-event ticks: every tick is [domain << 32 | n] with [n] the
    per-run evaluation order. Concurrent sweeps sharing one trace sink
    stay deterministically separable — sorting by tick groups each
    run's events contiguously in evaluation order, whatever the
    physical interleaving was.

    [?invocations] (default 1) runs each design point's kernel that many
    times back-to-back. [?fast_forward k] reaches the roadmark after
    invocation [k] through the functional interpreter once per
    (workload, memory-kind) pair — interpret-once/simulate-many — then
    forks every detailed simulation of that pair from the shared
    snapshot; measurements cover the post-roadmark epoch. Fast-forwarded
    and multi-invocation measurements carry a distinct fingerprint
    identity ([name#invN#ffK]), so a store holds them alongside plain
    runs without collision. Raises [Invalid_argument] unless
    [invocations >= 1] and [0 <= k < invocations]. *)
