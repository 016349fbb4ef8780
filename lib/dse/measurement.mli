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
(** Decode one line in a single pass. Keys may come in any order, with
    spaces between tokens; unknown keys are ignored and the first value
    of a repeated key wins. An error names the field and the reason:
    [missing field "cycles"], [field "cycles" must be an integer],
    [field "read_ports" is outside the int range]. *)

(** {2 Decoding a measurement riding in a larger object}

    {!of_line} is {!slots}, one {!Jsonl.iter_fields} pass that {!fill}s
    them, then {!of_slots}. A caller whose line carries other members
    too (a protocol reply) offers every member it parses to {!fill}
    first, so the line is still parsed once. *)

type slots
(** One slot per measurement field, typed by the field's kind. *)

val slots : unit -> slots
(** All empty. *)

val fill : slots -> string -> int -> int -> Jsonl.kind -> string -> int -> int -> bool
(** [fill s ksrc koff klen kind src off len] offers one member as
    {!Jsonl.iter_fields} hands it over. The field the canonical order
    names next is checked before any lookup. A field's slot takes the
    value, read straight from its token, unless it already has one (the
    first value of a key wins). [false] when the key is not a
    measurement field. *)

val of_slots : slots -> (t, string) result
(** The measurement, or the first field in line order that is missing
    or of the wrong kind, as {!of_line} reports it. *)

val pp_row : Format.formatter -> t -> unit
(** One aligned human-readable table row; pair with {!pp_header}. *)

val pp_header : Format.formatter -> unit -> unit
