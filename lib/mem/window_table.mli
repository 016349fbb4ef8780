(** Address windows.

    A table of [\[base, base + size)] windows, each with a target: the
    crossbar's routes, and the comm interface's routes and stream
    windows. It is built at configuration time; a lookup scans parallel
    int arrays, the most recently added window first, and allocates
    nothing. *)

type 'a t

val create : unit -> 'a t

val add : ?disjoint:string -> 'a t -> base:int -> size:int -> 'a -> unit
(** With [disjoint], a window that overlaps one already in the table is
    refused with [Invalid_argument "<disjoint>: range b+s overlaps
    b'+s'"]; without it, a later window shadows the earlier ones where
    they overlap. *)

val find : 'a t -> int -> int
(** The index of the most recently added window holding the address,
    or -1. *)

val target : 'a t -> int -> 'a
(** The target of the window at an index {!find} returned. *)
