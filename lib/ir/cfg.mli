(** Control-flow-graph analyses over a function.

    Blocks are indexed densely in the order they appear in the function;
    index 0 is the entry block. Dominators are computed with the
    Cooper-Harvey-Kennedy iterative algorithm. *)

type t

val build : Ast.func -> t

val block_count : t -> int

val index_of_label : t -> string -> int

val label_of_index : t -> int -> string

val block : t -> int -> Ast.block

val succs : t -> int -> int list

val preds : t -> int -> int list

val reachable : t -> int -> bool

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry block and unreachable
    blocks. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does block [a] dominate block [b]? Reflexive. *)

val dominance_frontier : t -> int -> int list

val back_edges : t -> (int * int) list
(** Edges [(src, dst)] where [dst] dominates [src] — natural loop back
    edges. *)
