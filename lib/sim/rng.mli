(** Deterministic pseudo-random number generation.

    Simulation inputs must be reproducible across runs and platforms, so
    every dataset generator in the repository draws from this SplitMix64
    implementation instead of [Stdlib.Random]. *)

type t

val create : int64 -> t
(** [create seed] makes an independent generator. Equal seeds yield equal
    streams. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [\[0, bound)]. [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
