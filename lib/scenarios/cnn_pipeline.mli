(** The three producer-consumer integration scenarios of Fig 16.

    One CNN layer (3x3 convolution -> ReLU -> 2x2 max-pool) runs on three
    dedicated accelerators under three system integrations:

    - {!run_private_spm}: every accelerator has a private scratchpad;
      a block DMA moves intermediate tensors between them and the host
      synchronises every stage (the gem5-Aladdin-style baseline);
    - {!run_shared_spm}: the accelerators share one cluster scratchpad,
      removing the copies, but the host still acts as the central
      synchroniser (the PARADE-style model);
    - {!run_streams}: the accelerators are chained with stream buffers
      and self-synchronise through ready/valid handshakes; no central
      controller is involved between stages.

    Each run checks the final tensor in DRAM against the golden CNN
    pipeline. The kernels are compiled once per process, through
    {!Salam_workloads.Workload.compile_kernel}, and shared by every
    later run. *)

type outcome = {
  scenario : string;
  total_us : float;  (** end-to-end, first DMA to last DMA completion *)
  correct : bool;
  stage_cycles : (string * int64) list;  (** per-accelerator busy cycles *)
  dynamic_instructions : int;  (** over the three accelerators *)
  kernel_events : int;  (** events the system's kernel executed *)
}

(** [?engine_config] is every accelerator's engine configuration
    (default {!Salam_engine.Engine.default_config}: compiled mode, check
    mode off), as [Salam.simulate] takes its config's. [?trace] installs
    a system-wide sink before construction (determinism oracles compare
    the streams). [?island_domains] is ignored: it exists only so an
    older benchmark caller that still passes it keeps compiling. *)

val run_private_spm :
  ?h:int ->
  ?w:int ->
  ?island_domains:int ->
  ?engine_config:Salam_engine.Engine.config ->
  ?trace:Salam_obs.Trace.sink ->
  unit ->
  outcome

val run_shared_spm :
  ?h:int ->
  ?w:int ->
  ?island_domains:int ->
  ?engine_config:Salam_engine.Engine.config ->
  ?trace:Salam_obs.Trace.sink ->
  unit ->
  outcome

val run_streams :
  ?h:int ->
  ?w:int ->
  ?island_domains:int ->
  ?engine_config:Salam_engine.Engine.config ->
  ?trace:Salam_obs.Trace.sink ->
  unit ->
  outcome

val run_all : ?h:int -> ?w:int -> unit -> outcome list
(** The three scenarios in paper order, same inputs. *)
