(** HLS timing reference.

    Plays the role Vivado HLS plays in the paper's Fig 10 validation: an
    *independent*, static estimate of the kernel's cycle count, produced
    by a completely different method from the runtime engine — loop-level
    initiation-interval analysis over the static CDFG plus dynamic basic
    block execution counts (the information HLS gets from trip-count
    pragmas / co-simulation).

    For every natural loop the initiation interval is the maximum of
    - the recurrence II (longest loop-carried dependence chain through
      the header phis),
    - the resource II (operations per iteration over available units),
    - the memory II (loads/stores per iteration over port counts), and
    - the control II (the loop's branch-resolution chain),
    and the loop contributes [trips x II] plus a pipeline drain per
    invocation. Straight-line blocks contribute their list-schedule
    depth. *)

type config = {
  profile : Salam_hw.Profile.t;
  fu_limits : (Salam_hw.Fu.cls * int) list;
  mem_read_latency : int;
  read_ports : int;
  write_ports : int;
}

val block_counts :
  Salam_ir.Memory.t ->
  Salam_ir.Ast.modul ->
  entry:string ->
  args:Salam_ir.Bits.t list ->
  string ->
  int
(** Execution count of each basic block, from a functional run — the
    trip-count knowledge an HLS co-simulation has. Returns a lookup
    function (block label -> count). *)

val estimate_cycles : ?config:config -> Salam_ir.Ast.func -> counts:(string -> int) -> int
