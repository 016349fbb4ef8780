(** Interpreter-vs-engine differential oracle.

    The functional interpreter ([Salam_ir.Interp]) and the timing engine
    ([Salam_engine.Engine]) execute the same IR from identical initial
    memory; their final output buffers must agree word for word. Any
    disagreement is reported at the first divergent 8-byte word together
    with the provenance of the last interpreter store that wrote the
    byte — function-level context for debugging a scheduling or
    forwarding bug, in the spirit of MosaicSim's emulation-vs-timing
    validation. *)

type provenance = {
  p_block : string;  (** basic block of the store *)
  p_instr : string;  (** printed store instruction *)
  p_addr : int64;
  p_size : int;
}

type divergence = {
  d_buffer : string;  (** workload buffer name *)
  d_offset : int;  (** byte offset of the divergent word within the buffer *)
  d_interp : int64;  (** interpreter's word (little-endian, zero-padded) *)
  d_engine : int64;  (** engine's word *)
  d_store : provenance option;
      (** last interpreter store covering the first divergent byte *)
}

type failure =
  | Divergence of divergence
  | Mode_divergence of divergence
      (** compiled-vs-dynamic buffer divergence; [d_interp] holds the
          dynamic-mode word, [d_engine] the compiled-mode word, and the
          provenance still names the last interpreter store *)
  | Mode_mismatch of string
      (** compiled-vs-dynamic: cycle counts, statistics, return value or
          trace event streams differ *)
  | Interp_golden_failed
  | Engine_golden_failed
  | Harness_error of string
      (** anything {!guard} catches: a trap, an engine or cache invariant
          violation, a located fault, [Failure] or [Invalid_argument] *)

type report = { r_subject : string; r_result : (unit, string) result }
(** One point of one oracle leg: what was checked (a workload name, or a
    snapshot point) and the failure's message. Every leg's [check_all]
    returns these. *)

val failure_to_string : failure -> string

val guard : (string -> 'e) -> (unit -> ('a, 'e) result) -> ('a, 'e) result
(** [guard wrap f] runs [f], turning every way the checked system can
    fail into [Error (wrap message)]: an interpreter trap, an engine or
    cache invariant violation, a located runtime error, [Failure] and
    [Invalid_argument]. Every oracle leg runs under it. *)

val check_workload :
  ?config:Salam.Config.t ->
  ?func:Salam_ir.Ast.func ->
  ?engine_func:Salam_ir.Ast.func ->
  ?trace:Salam_obs.Trace.sink ->
  Salam_workloads.Workload.t ->
  (unit, failure) result
(** Run both sides from identical initial memory (the interpreter seeded
    with [config.seed]) and compare: buffers word-for-word, then both
    sides against the workload's golden model. The engine side is
    {!Salam.simulate} under [?config] (default {!Salam.Config.default}:
    its memory attachment, engine mode, clock and hardware profile) with
    [engine.check] forced on, read back through [~inspect]. The interpreter is timing-free, so the oracle
    vouches for any loadable database row. [?func] substitutes a
    pre-compiled function on both sides (used by the fuzzer);
    [?engine_func] overrides the engine side only (used to plant bugs
    that the oracle must catch); [?trace] installs a trace sink on the
    engine-side system. *)

val check_modes :
  ?config:Salam.Config.t ->
  ?func:Salam_ir.Ast.func ->
  ?trace:Salam_obs.Trace.sink ->
  Salam_workloads.Workload.t ->
  (unit, failure) result
(** Compiled-vs-dynamic differential: run [?config] with the engine in
    each scheduling mode from identical initial memory and require
    bit-identical results — store contents word-for-word (divergences
    carry interpreter store provenance, like {!check_workload}), return
    value, full run statistics including the cycle count, and the
    default-category trace event streams. [?trace] additionally installs
    the given sink on the compiled-mode run. *)

val check_all :
  ?config:Salam.Config.t -> Salam_workloads.Workload.t list -> report list
(** {!check_workload} on each workload, subject the workload's name. *)

val check_all_modes :
  ?config:Salam.Config.t -> Salam_workloads.Workload.t list -> report list
(** {!check_modes} on each workload, subject the workload's name. *)
