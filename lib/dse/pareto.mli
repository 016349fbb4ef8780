(** Pareto-front extraction over (execution time, power, area).

    All three objectives are minimised. A point dominates another when
    it is no worse on every objective and strictly better on at least
    one; the front is the set of non-dominated points. Incorrect runs
    (golden-model mismatch) never enter a front. *)

type objectives = { time_s : float; power_mw : float; area_um2 : float }

val dominates : objectives -> objectives -> bool

val partition : Measurement.t list -> Measurement.t list * Measurement.t list
(** [(front, dominated)]. The front keeps input order; incorrect
    measurements always land in [dominated]. *)

val front : Measurement.t list -> Measurement.t list

val to_csv : Measurement.t list -> string
(** All measurements as CSV (header + one row per point): the point
    knobs, the three objectives and the stall/occupancy columns —
    ready for plotting Fig 13-style clouds. *)

val pp : Format.formatter -> front:Measurement.t list -> dominated:Measurement.t list -> unit
(** Text rendering: the front as a table, then a one-line count of the
    dominated cloud. *)
