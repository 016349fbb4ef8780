(** Intrusive doubly-linked list with O(1) removal by node.

    The engine keeps its in-flight memory operations and its wake-up
    (ready) queue in these lists: every element holds on to its own node,
    so removing an arbitrary element — a memory op committing out of
    program order, an instruction leaving the ready queue when it issues
    — is a pointer splice instead of an O(n) [List.filter].

    Walks are exposed as [head]/[tail]/[next]/[prev] so callers can
    early-exit (the engine stops a disambiguation walk at the first
    entry not older than the candidate). Nodes may be unlinked while a
    walk holds them: [next]/[prev] read the node's pointers at call
    time, so capture the successor before removing a node.

    Each node carries its own [Some node] from creation, so linking and
    unlinking allocate nothing. *)

type 'a node

type 'a t

val create : unit -> 'a t

val node : 'a -> 'a node
(** A fresh unlinked node carrying [value]. *)

val some : 'a node -> 'a node option
(** [Some node], allocated once when the node was made — for callers
    that keep node options of their own without allocating. *)

val value : 'a node -> 'a

val linked : 'a node -> bool

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a node -> unit
(** Raises [Invalid_argument] if the node is already linked. *)

val push_front : 'a t -> 'a node -> unit

val insert_after : 'a t -> anchor:'a node -> 'a node -> unit
(** Splice a node directly after [anchor], which must be linked (in this
    list — membership is not checked). *)

val remove : 'a t -> 'a node -> unit
(** Unlink the node; O(1). Raises [Invalid_argument] if not linked. The
    node may be reused afterwards. *)

val head : 'a t -> 'a node option

val tail : 'a t -> 'a node option

val next : 'a node -> 'a node option

val prev : 'a node -> 'a node option

val iter : ('a -> unit) -> 'a t -> unit
(** Head-to-tail; the list must not be mutated during iteration. *)

val to_list : 'a t -> 'a list
(** Head-to-tail, mainly for tests. *)
