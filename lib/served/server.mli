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
