(** The salam_served daemon core.

    A started server owns a Unix-domain listening socket, a persistent
    result store ({!Salam_dse.Store_shard}), an in-flight
    deduplication table and a pool of OCaml 5 worker domains behind a
    job queue of 64 slots. Each accepted connection gets a handler thread
    speaking the {!Protocol} line protocol; handler threads block on IO
    and on answers, never on simulation.

    Guarantees:
    - warm points are answered straight from the store, bit-identical
      to the measurement that was stored (served tag ["hit"]);
    - a cold fingerprint is simulated {e at most once} at any moment,
      however many clients ask for it concurrently — the first request
      becomes the owner (tag ["sim"], counted as a miss), the rest wait
      on the same pending entry (tag ["dedup"]) and receive the same
      measurement line;
    - every request line gets exactly one terminal reply, after the
      [point] lines of a sweep; hits, misses, dedups and simulations are
      counted and read back by a [stats] request;
    - store misses queue onto the worker pool; a submitter blocks while
      64 jobs wait, so a flood of cold sweeps exerts backpressure on the
      submitting connections instead of exhausting memory;
    - a request line longer than {!Protocol.max_line} bytes is refused with an
      error reply naming the bound, and its connection closed; other
      clients are served on;
    - {!stop} drains: every in-flight simulation completes and answers
      its waiters before the store is closed and the socket removed,
      and the store file ends on a complete line. *)

type config = {
  socket_path : string;
  store_dir : string option;  (** [None] = in-memory store *)
  workers : int;  (** worker domains; at least 1 *)
}

val default_config : unit -> config
(** In-memory store, [default_domains - 1] workers. [socket_path] is empty and must be set. Reads
    [SALAM_DOMAINS] when called, so raises [Invalid_argument] naming
    the variable and its value when it is set but not a positive
    integer. *)

type t

val start : config -> t
(** Open (or create) the store, bind the socket, spawn the worker
    domains and the accept thread, and return immediately. Raises
    [Failure] when the socket path hosts a live daemon (a stale socket
    file from a crashed one is reclaimed), [Invalid_argument] on an
    empty socket path or non-positive workers. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain in-flight simulations,
    retire the worker pool, hang up on every client, close the store,
    remove the socket file. Idempotent — concurrent calls beyond the
    first return immediately (without waiting); use {!wait} to observe
    completion. Safe to call from a signal-handler-spawned thread and
    from connection handlers (the shutdown op). *)

val wait : t -> unit
(** Block until the server has fully stopped. *)

val stats_snapshot : t -> Protocol.server_stats

(** {2 Resolving a request line}

    What a connection's handler does with each request line before it
    looks at the store: decode it, make its points canonical, pass them
    through [Explore.check] and fingerprint them. Each connection keeps
    a {!memo} of the [sim] lines it has resolved, so a repeat whose
    point the store holds skips all of that. *)

type resolved = {
  plan : Salam_dse.Explore.plan;
  point : Salam_dse.Point.t;  (** canonical, past [Explore.check] *)
  fp : int64;
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Sim of resolved
  | Sweep of resolved list
  | Refused of string  (** a sim or sweep whose spec or a point fails the check *)

type memo
(** A connection's resolved points ({!Memo}): a [sim] line in canonical
    form ([{"id":N,"op":"sim",…}]) keyed by its bytes after the id
    member, mapped to the point's fingerprint. Only points that resolved
    are kept; a [sweep] line is never kept. *)

val memo : unit -> memo

val memo_size : memo -> int
(** At most {!Memo.capacity}. *)

val resolve_line :
  memo -> string -> int -> int -> (int64 * request, int64 * string) result
(** [resolve_line memo s off len] resolves the request line that is the
    [len] bytes of [s] from [off] by {!Protocol.decode_request_sub} and
    the check, and adds a [sim] point that resolved to the memo. [Error
    (id, msg)] is a line that does not decode, as
    {!Protocol.decode_request} answers it. *)

type recalled = {
  r_id : int64;
  fp : int64;
}

val recall : memo -> string -> int -> int -> recalled option
(** The id and fingerprint of a [sim] line whose bytes after its id the
    memo holds; [None] for any other line, which takes the full path.
    The handler answers a recalled line from the store when it holds
    the point, else by the full path. *)
