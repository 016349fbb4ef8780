(** Statistics infrastructure.

    Every simulated device registers named scalar counters into a
    group; groups nest, mirroring gem5's stats tree. Scalars are the
    only kind of statistic: quantities derived from them (ratios,
    per-cycle rates) are computed where they are reported. *)

type group

type scalar

val group : ?parent:group -> string -> group

val scalar : group -> string -> scalar
(** Fresh scalar statistic, initial value 0. *)

val incr : scalar -> unit

val add : scalar -> float -> unit

val value : scalar -> float

val fold : group -> init:'a -> f:('a -> path:string -> float -> 'a) -> 'a
(** Fold over every scalar in the subtree, in registration order: a
    group's own scalars, then each child group's subtree. Paths are
    dotted and relative to [g] ([g]'s own name is not a component),
    e.g. ["subgroup.name"]. *)
