(** Common shape of a benchmark workload.

    A workload bundles a kernel (in the DSL), its buffer layout, a
    deterministic dataset generator and an OCaml golden model. The same
    record drives the interpreter, the runtime engine, the trace-based
    baseline and the reference models, so every consumer sees identical
    inputs. *)

type t = {
  name : string;
  kernel : Salam_frontend.Lang.kernel;
  buffers : (string * int) list;
      (** one (name, bytes) per pointer parameter, in parameter order *)
  scalar_args : Salam_ir.Bits.t list;
      (** values for trailing scalar parameters *)
  init : Salam_sim.Rng.t -> Salam_ir.Memory.t -> int64 array -> unit;
      (** fill input buffers; receives the buffer base addresses *)
  check : Salam_ir.Memory.t -> int64 array -> bool;
      (** compare outputs against the golden model *)
}

val compile_kernel : Salam_frontend.Lang.kernel -> Salam_ir.Ast.func
(** Compile a kernel once per process: the result is memoised by kernel
    name, so two kernels must share a name only if they are the same
    kernel. Every caller gets the same function, which it must not
    mutate. Safe to call from several domains. *)

val compile : t -> Salam_ir.Ast.func
(** [compile_kernel] of the workload's kernel. *)

val modul : t -> Salam_ir.Ast.modul

val alloc_buffers : t -> Salam_ir.Memory.t -> int64 array
(** Allocate every buffer in the given memory, in order. *)

val args : t -> bases:int64 array -> Salam_ir.Bits.t list
(** Pointer arguments for the buffer bases followed by the scalars. *)

val total_buffer_bytes : t -> int

val run_functional : ?seed:int64 -> t -> bool
(** Interpret the kernel on a fresh memory and check against the golden
    model — the correctness gate used by tests. *)
