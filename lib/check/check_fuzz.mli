(** Randomised kernel fuzzer over the differential oracle.

    Generates small, well-typed, terminating kernels in the
    [Salam_frontend.Lang] DSL — in-bounds array accesses and non-zero
    literal divisors by construction — pushes each through the full
    compile pipeline (lower → mem2reg → passes) and runs the timing
    engine against the functional interpreter. Generation is
    deterministic: the master [seed] plus the case index reproduce any
    kernel exactly, so a printed failure is always replayable.

    Failing kernels are shrunk by statement deletion (plus loop
    unwrapping and branch collapsing) while they keep failing, bounding
    the counterexample a human has to read. *)

val n_elems : int
(** Elements in each of the two fuzz buffers ([f64 a\[\]], [i32 b\[\]]). *)

val gen_kernel : seed:int64 -> case:int -> Salam_frontend.Lang.kernel
(** Deterministic kernel for (seed, case). *)

val plant_float_bug : Salam_ir.Ast.func -> Salam_ir.Ast.func
(** Flip the first [fadd] to [fsub] (else the first [fmul] to [fadd]),
    in place. Used to verify the fuzzer actually detects a miscomputing
    engine: only float arithmetic is flipped, never the integer or
    control instructions that feed loop bounds and addresses. *)

val kernel_to_string : Salam_frontend.Lang.kernel -> string

type failure_kind =
  | Compile_failure of string  (** frontend rejected a generated kernel *)
  | Oracle of Check_oracle.failure
  | Snapshot of string
      (** fast-forwarding to a mid-schedule roadmark was not
          bit-identical to the uninterrupted run (see {!Check_snapshot}) *)

type case_failure = {
  cf_case : int;
  cf_kernel : Salam_frontend.Lang.kernel;
  cf_shrunk : Salam_frontend.Lang.kernel;
  cf_failure : failure_kind;
  cf_trace : string list;
      (** the last 32 engine-side trace events from
          replaying the shrunk counterexample under a ring sink — a
          crash dump for the failure report *)
}

val failure_kind_to_string : failure_kind -> string

val run_kernel :
  ?mutate:(Salam_ir.Ast.func -> Salam_ir.Ast.func) ->
  ?config:Salam.Config.t ->
  ?trace:Salam_obs.Trace.sink ->
  data_seed:int64 ->
  Salam_frontend.Lang.kernel ->
  failure_kind option
(** One kernel through compile + oracle; [None] when both sides agree.
    Every leg simulates [?config] (default {!Salam.Config.default}) with
    its seed replaced by [data_seed]. [mutate] rewrites a private copy
    of the compiled function for the engine side only; [trace] installs
    a sink on the engine-side run. *)

val run :
  ?mutate:(Salam_ir.Ast.func -> Salam_ir.Ast.func) ->
  ?config:Salam.Config.t ->
  seed:int64 ->
  count:int ->
  unit ->
  case_failure list
(** Fuzz campaign: [count] cases derived from [seed], shrinking every
    failure (bounded at 200 shrink attempts per case). *)
