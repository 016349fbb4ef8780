(** What the DSE records per evaluated design point.

    A measurement is the flattened, persistence-friendly subset of
    {!Salam.result} that the exploration loop, the Pareto extractor and
    the figure renderers need: the three Pareto objectives (execution
    time, power, area), the stall/scheduling-mix counters behind the
    paper's Figs 14–15, and provenance (workload identity, the point,
    its fingerprint). Encoding and decoding are exact — a measurement
    read back from the store is structurally equal to the one written —
    which is what makes cache hits bit-identical to fresh runs. *)

type t = {
  fp : int64;  (** {!Point.fingerprint} of (workload, point) *)
  workload : string;
  point : Point.t;
  (* objectives *)
  cycles : int64;
  seconds : float;  (** simulated time *)
  total_mw : float;
  datapath_mw : float;  (** FU + register terms only (Fig 13's x cloud) *)
  area_um2 : float;
  correct : bool;
  (* scheduling mix (Fig 14/15) *)
  active_cycles : int;
  issue_cycles : int;
  stall_cycles : int;
  stall_load_only : int;
  stall_load_compute : int;
  stall_load_store_compute : int;
  stall_other : int;
  cycles_with_load : int;
  cycles_with_store : int;
  cycles_with_load_and_store : int;
  loads_issued : int;
  stores_issued : int;
  issued_fp : int;
  issued_int : int;
  issued_mem : int;
  fmul_occupancy : float;  (** against the recorded FU inventory *)
  fmul_allocated : int;
  (* memory-system counters *)
  spm_reads : int;
  spm_writes : int;
  cache_hits : int;
  cache_misses : int;
}

val of_result : workload:string -> point:Point.t -> Salam.result -> t

val to_line : t -> string
(** One JSONL line (no trailing newline): the canonical form, with every
    field once, in a fixed order, with no spaces. *)

val of_line : string -> (t, string) result
(** Decode one line: exactly the bytes {!to_line} writes, so
    [of_line l = Ok m] implies [to_line m = l]. Each field is read where
    {!to_line} puts it, by its kind. Any other spelling is refused: a
    member out of order, a space, a repeated or unknown member, a
    decimal float, an upper-case fingerprint, an escape the writer does
    not write. An error names the field and the reason, or the offset:
    [missing field "cycles" at offset 412], [field "cycles" must be an
    integer], [field "read_ports" is outside the int range], [bad value
    "1.5" at offset 530]. *)

val of_cursor : Jsonl.cursor -> (t, string) result
(** {!of_line} of the members from the cursor to the end of the object,
    for a line that carries other members first (a protocol reply reads
    its envelope, then hands the rest over in place). Raises
    {!Jsonl.Syntax} on a syntax error. *)

val pp_row : Format.formatter -> t -> unit
(** One aligned human-readable table row; pair with {!pp_header}. *)

val pp_header : Format.formatter -> unit -> unit
