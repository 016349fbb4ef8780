(** The exploration driver: strategies over a space, answered from the
    store when possible and from domain-parallel simulation when not.

    Every strategy works on the deduplicated enumeration of the given
    spaces. Evaluation batches all store misses through
    [Salam.simulate_jobs], so a cold sweep fans out across OCaml 5
    domains while a warm sweep touches no simulator at all; either way
    the per-point results are bit-identical (the batch API is pinned
    deterministic, and the store round-trips measurements exactly). *)

type target = {
  workload_id : Point.t -> string;
      (** stable identity for fingerprints — must change whenever the
          built workload's behaviour changes (e.g. unroll factors) *)
  build : Point.t -> Salam_workloads.Workload.t;
  unroll_trips : int option;
      (** iterations of the loops the point's [unroll]/[junroll] factors
          unroll: both must divide it. [None] for a target with no such
          loops, which takes only factors of 1. *)
}

val gemm_target : ?n:int -> unit -> target
(** The paper's DSE vehicle: [n x n] GEMM whose k-/j-loop unroll factors
    come from the point ([unroll]/[junroll] axes). *)

val suite_target : string -> (target, string) result
(** A fixed suite workload looked up by name prefix. The point's
    [unroll]/[junroll] knobs are not consumed, so {!check} holds them
    at 1 (points differing only there would simulate identically under
    distinct fingerprints). *)

val check : target -> Point.t -> (unit, string * string) result
(** The one validity check of a canonical design point, run by
    {!run}, by salam_dse before anything is simulated and by the
    salam_served daemon before its store lookup (not by
    {!Point.of_compact}, so stores holding older points still open).
    Every knob must lie in the range {!Point.to_config} elaborates to
    hardware: SPM read and write ports and banks at least 1, a cache
    capacity that is a positive multiple of 256 bytes (64-byte lines, 4
    ways), an FU limit of at least 0, unroll factors that divide the
    target's [unroll_trips] (or are 1 where it has none) and a
    positive clock; and the hardware
    identity must resolve ({!Point.resolve_profile}).
    [Error (key, message)] names the first offending knob by its
    {!Point.to_compact} key ([hw_db] for an identity that does not
    resolve); [message] names the key and its value. *)

val flag_of_key : string -> string
(** The command-line flag that sets the knob {!check} names by [key]:
    ["fu_limit"] is [--fu], ["cache_bytes"] is [--cache-size], and so on;
    [hw_db] maps to [--hw-db/--cycle-time]. salam_dse and salam_sim
    spell every knob this way. *)

exception Invalid_point of string * string
(** [Invalid_point (key, message)]: {!run} refused a point of its
    space, as {!check} reports it. *)

type strategy =
  | Exhaustive  (** every enumerated point, in enumeration order *)
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
      (** points measured in this process: run, or derived from a run *)
  derived : int;
      (** of [simulated], the points answered from the run of a looser
          FU cap without simulating ({!measure}) *)
  candidates : int;  (** size of the deduplicated enumeration *)
  snapshots : int;
      (** warm-up snapshots taken under [?fast_forward] — one per
          (workload identity, memory kind), shared by every timing
          configuration of that pair *)
}

val summary_line : report -> store:Store_shard.t option -> string
(** The machine-readable one-liner printed by CLI/CI:
    ["\[dse\] candidates=.. evaluated=.. cache_hits=.. simulated=.. front=.. snapshots=.. derived=.. store=.."]. *)

val identity : workload:string -> invocations:int -> fast_forward:int option -> string
(** The measured fingerprint identity: the workload id, suffixed
    [#invN] when [invocations > 1] and [#ffK] under fast-forward. The
    store keys measurements by [Point.fingerprint ~workload:(identity
    ...)]; see {!fingerprint}. *)

(** {2 The measure step}

    How a point becomes a measurement, for a local sweep and the
    salam_served daemon's workers alike: only this module maps a point
    to its identity, fingerprint, config, workload and snapshot key. *)

type plan = {
  target : target;
  invocations : int;
  fast_forward : int option;  (** roadmark: interpreter invocations *)
}
(** How the points of one sweep or one daemon request are measured. *)

val fingerprint : plan -> Point.t -> int64
(** The store key of a canonical point measured under [plan]:
    {!Point.fingerprint} under the {!identity} of the target's
    workload. It builds no config and no workload, so a warm lookup
    costs only this. *)

type job
(** A canonical point elaborated for measuring. *)

val job : plan -> Point.t -> job
(** Elaborate a point that missed the store: {!Point.to_config} and
    the target's [build]. Run {!check} first: a point outside its
    ranges may raise [Invalid_argument] here or when simulated. *)

val job_fp : job -> int64
(** {!fingerprint} of the job's point. *)

val measure :
  ?domains:int ->
  snapshot:(string -> (unit -> Salam.snapshot) -> Salam.snapshot) ->
  job list ->
  Measurement.t list * int
(** Measure [jobs] and turn each result into its measurement, checked
    to carry the job's fingerprint; measurements come back in job order,
    with the number of them that were derived rather than simulated.

    Jobs that differ only in their FU cap ([Point.fu_limit]) form a
    group. The loosest member of each group (no cap, else the largest)
    runs, all of them as one {!Salam.simulate_jobs} batch across
    [?domains]. Every other member is answered from its group's run by
    {!Salam.derive} when the run never had more units of a capped class
    busy than the member allocates: the measurement is byte-identical to
    simulating it. The members a cap would bind run as a second batch.

    Under fast-forward a job starts from [snapshot key warm_up]: the
    snapshot memoised under [key], or [warm_up ()] when there is none
    yet. The key names the workload identity, memory kind and roadmark,
    all a snapshot is shaped by, so every timing knob shares one
    warm-up. *)

val run :
  ?store:Store_shard.t ->
  ?domains:int ->
  ?fast_forward:int ->
  ?invocations:int ->
  ?remote:(Point.t list -> (Measurement.t * string) list) ->
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

    [?invocations] (default 1) runs each design point's kernel that many
    times back-to-back. [?fast_forward k] reaches the roadmark after
    invocation [k] through the functional interpreter once per
    (workload, memory-kind) pair — interpret-once/simulate-many — then
    forks every detailed simulation of that pair from the shared
    snapshot; measurements cover the post-roadmark epoch. Fast-forwarded
    and multi-invocation measurements carry a distinct fingerprint
    identity ([name#invN#ffK]), so a store holds them alongside plain
    runs without collision. Raises [Invalid_argument] unless
    [invocations >= 1] and [0 <= k < invocations], and
    {!Invalid_point} before anything is simulated when an enumerated
    point fails {!check}. *)
