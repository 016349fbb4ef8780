(** A declarative design space: typed axes over {!Point.t} knobs.

    A space is a base point, a list of axes (each a knob with the values
    it sweeps) and an optional derivation rule for dependent knobs (e.g.
    "write ports are half the read ports, banks twice"). {!enumerate}
    takes the cartesian product of the axes in declaration order,
    applies the derivation, canonicalises and deduplicates — so a
    3-axis sweep is three lines of description, not a nest of loops.
    Unioning spaces (concatenating their enumerations) expresses
    non-rectangular sweeps such as the paper's Fig 13 clouds. Whether a
    point is in range is {!Explore.check}'s question. *)

type axis =
  | Memory of Point.memory_kind list
  | Read_ports of int list
  | Write_ports of int list
  | Banks of int list
  | Cache_bytes of int list
  | Fu_limit of int list
  | Unroll of int list
  | Junroll of int list
  | Clock_mhz of float list
  | Cycle_time_ns of float list
      (** hardware-profile cycle time; applying this axis also sets the
          point's clock to the matching frequency
          ({!Salam_config.clock_mhz_of_cycle_time}), so timing and
          characterization stay in agreement *)
  | Node of int list  (** technology node in nm *)
  | Hw_db of string list
      (** characterization-database content hashes ({!Salam_config.hash});
          the databases must be registered in-process before points are
          simulated *)

type t

val create : ?base:Point.t -> ?derive:(Point.t -> Point.t) -> axis list -> t
(** [derive] runs on every enumerated point before canonicalisation —
    use it for dependent knobs. *)

val enumerate : t -> Point.t list
(** Cartesian product in axis declaration order (last axis varies
    fastest), derived, canonicalised, deduplicated (first occurrence
    wins). Deterministic. *)

val enumerate_all : t list -> Point.t list
(** Union of several spaces' enumerations, deduplicated across spaces. *)

val spm_balanced : Point.t -> Point.t
(** The standard derivation used by the paper's GEMM sweeps: [write_ports
    = max 1 (read_ports / 2)], [banks = 2 * read_ports] (identity for
    non-SPM points). Exposed so the CLI and bench declare it rather than
    re-encode it. *)
