(** Functional interpreter for the IR.

    This is the golden semantic reference: the timing engine, the
    trace-based baseline and the tests all check against it. Execution is
    sequential and instantaneous — no timing model. A run resolves each
    function it enters once (blocks into an array, labels into indices,
    phis into per-edge moves, constants into slots) and then computes on
    raw payloads ({!Bits.Payload}); values are boxed only where this
    interface shows a {!Bits.t}. A run keeps no state outside itself, so
    runs on different domains do not interact.

    Calls to functions not defined in the module are resolved through the
    intrinsic table {!intrinsics}: the math routines MachSuite kernels
    use ([sqrt], [fabs], [exp], [sin], [cos], [fmin], [fmax], [floor]). *)

exception Out_of_fuel

exception Trap of string
(** Runtime error: division by zero, null dereference, unknown callee,
    or call-stack overflow. *)

type event = {
  ev_instr : Ast.instr;
  ev_block : string;
  ev_operands : Bits.t list;  (** evaluated operands, {!Ast.used_values} order *)
  ev_result : Bits.t option;
}

type intrinsics = (string * (Bits.t list -> Bits.t)) list

val intrinsics : intrinsics

val run :
  ?fuel:int ->
  ?on_exec:(event -> unit) ->
  Memory.t ->
  Ast.modul ->
  entry:string ->
  args:Bits.t list ->
  Bits.t option
(** [run mem m ~entry ~args] interprets function [entry]. [fuel] bounds
    the total number of executed instructions (default 100 million).
    [on_exec] fires after every executed instruction and is how the
    trace-based baseline captures its dynamic trace. *)

val run_each :
  ?fuel:int ->
  Memory.t ->
  Ast.modul ->
  entry:string ->
  args:Bits.t list ->
  invocations:int ->
  (Bits.t option -> unit) ->
  unit
(** [run_each mem m ~entry ~args ~invocations f] is [invocations] runs
    of {!run} one after another, each with its own [fuel], calling [f]
    with each run's result before the next starts. The runs resolve
    each function of [m] once for all of them. *)
