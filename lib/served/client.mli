(** A synchronous salam_served client.

    One request at a time per client: send, then read until the
    terminal response. Not thread-safe — open one client per thread
    (connections are cheap; the daemon multiplexes).

    Every wire or protocol failure raises {!Protocol_error} with a
    message naming what went wrong (a reply line longer than
    {!Protocol.max_line} names the bound); a [type=error] reply from the
    daemon is re-raised the same way. *)

type t

exception Protocol_error of string

val connect : string -> t
(** Connect to the daemon's Unix-domain socket path. *)

val close : t -> unit
(** Idempotent. *)

val with_connection : string -> (t -> 'a) -> 'a

val ping : t -> unit

val stats : t -> Protocol.server_stats

val shutdown : t -> unit
(** Ask the daemon to stop; returns once it acknowledges ([stopping]).
    The daemon finishes in-flight work before exiting. *)

val sim : t -> ?spec:Protocol.spec -> Salam_dse.Point.t -> string * Salam_dse.Measurement.t
(** Evaluate one point; returns [(served, measurement)] where [served]
    is ["hit"], ["sim"] or ["dedup"]. *)

val sweep :
  t ->
  ?spec:Protocol.spec ->
  Salam_dse.Point.t list ->
  Protocol.response * (string * Salam_dse.Measurement.t) list
(** Evaluate a batch; answers come back in request order regardless of
    completion order. The first component is the [Sweep_done] terminal
    (points/hits/sims/deduped counters). A batch whose request line
    would pass {!Protocol.max_line} is sent as several [sweep] requests
    ({!Protocol.sweep_batches}), one after another, and their counters
    summed: a point repeated across them is a hit in the later one, not
    a dedup. *)
