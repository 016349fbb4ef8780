(** Architectural-state checkpoints.

    A checkpoint captures the complete *architectural* state of a
    simulated system at a roadmark — a named kernel-invocation boundary.
    Each component contributes one named {!section} via an {!agent};
    restore is strict and bidirectional: every section must find its
    component and vice versa, or the whole restore is refused with
    {!Invalid}. Checkpoints are in-memory values only; there is no
    file format.

    Deliberately excluded from checkpoints (see DESIGN.md):
    - timing-derived state (cache tags/LRU, in-flight request queues) —
      components instead guarantee quiescence at capture points and come
      back cold on restore;
    - statistics — a restore resets them, so a run's stats always cover
      exactly the post-restore epoch;
    - engine register files — roadmarks sit at invocation boundaries
      where SSA registers are dead. *)

exception Invalid of string
(** Raised on shape mismatches and on missing or mistyped fields. A
    failed restore never leaves the system half-restored. *)

type value = Int of int64 | Blob of string

type section = { sec_name : string; fields : (string * value) list }

type t = { roadmark : string; tick : int64; sections : section list }

val find_int : section -> string -> int64

val find_blob : section -> string -> string

val section : t -> string -> section option

type agent = {
  agent_name : string;  (** unique per system; doubles as the section name *)
  capture : unit -> (string * value) list;
  restore : section -> unit;
}

val capture_all : roadmark:string -> tick:int64 -> agent list -> t

val restore_all : t -> agent list -> unit
