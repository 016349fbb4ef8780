(** The salam_served wire protocol.

    Newline-delimited flat JSON objects over a Unix-domain socket, one
    message per line in both directions, spoken with the store's
    hand-rolled codec ({!Salam_dse.Jsonl}) — floats round-trip
    bit-exactly, which is what lets a served measurement equal a local
    one byte for byte.

    Grammar (every value a scalar; no spaces, members in this order):
    {v
    request  := {"id":N,"op":"ping"|"stats"|"shutdown"}
              | {"id":N,"op":"sim",<spec>,"point":"k=v,..."}
              | {"id":N,"op":"sweep",<spec>,"points":"k=v,...;k=v,..."}
    spec     := "workload":S,"gemm_n":N,"invocations":N[,"fast_forward":N]
    response := {"id":N,"type":"pong"|"stopping"}
              | {"id":N,"type":"error","error":S}
              | {"id":N,"type":"result","served":S,<measurement fields>}
              | {"id":N,"type":"point","index":N,"served":S,<measurement fields>}
              | {"id":N,"type":"done","points":N,"hits":N,"sims":N,"deduped":N}
              | {"id":N,"type":"stats","hits":N,"misses":N,"deduped":N,
                 "simulated":N,"inflight":N,"queue_depth":N,"store_size":N,
                 "requests":N}
    v}

    Requests carry a client-chosen [id]; every response line echoes it.
    A sweep's [point] lines precede exactly one terminal line per
    request. [served] is ["hit"] (store-warm), ["sim"] (this request
    simulated it) or ["dedup"] (another in-flight request simulated it).
    Malformed input yields a loud [error] response, never a crash.

    The measurement fields of a [result] or [point] line are the store's
    line ({!Salam_dse.Measurement.to_line}) spliced in after the
    envelope ({!splice}), so the daemon answers a stored point without
    encoding it, and {!decode_response} parses any line once. Each
    decoder accepts exactly what its writer writes ({!encode_request},
    {!splice}, {!encode_response}), reading every member where the
    writer puts it: a line that decodes re-encodes to its own bytes. A
    member out of order, a space, an unknown or repeated member is
    refused, naming the field or the offset. *)

type spec = {
  workload : string;  (** "gemm" or a suite workload name *)
  gemm_n : int;
  invocations : int;
  fast_forward : int option;
}

val default_spec : spec
(** gemm, n=16, one invocation, no fast-forward. *)

type request =
  | Ping
  | Sim of spec * Salam_dse.Point.t
  | Sweep of spec * Salam_dse.Point.t list
  | Stats
  | Shutdown

type server_stats = {
  st_hits : int;
  st_misses : int;
  st_deduped : int;
  st_simulated : int;
  st_inflight : int;
  st_queue_depth : int;
  st_store_size : int;
  st_requests : int;
}

type response =
  | Pong
  | Result of { served : string; m : Salam_dse.Measurement.t }
  | Sweep_point of { index : int; served : string; m : Salam_dse.Measurement.t }
  | Sweep_done of { points : int; hits : int; sims : int; deduped : int }
  | Stats_reply of server_stats
  | Stopping
  | Failed of string

val encode_request : id:int64 -> request -> string

val max_line : int
(** The longest line either end reads, newline excluded: 8 MiB. *)

type reader
(** A connection's buffered input, read straight from its descriptor. *)

val reader : Unix.file_descr -> reader

val next : reader -> [ `Line | `Eof | `Too_long ]
(** Read the next line, without its newline (a last line may lack one),
    and leave it in the reader's buffer: it is the {!line_len} bytes of
    {!line_src} from {!line_off}, until the next call. [`Eof] at end of
    input or on a read error, or [`Too_long] once more than {!max_line}
    bytes have come without a newline. Both ends read through it: the
    daemon its requests, {!Client} its replies. *)

val line_src : reader -> string
(** The reader's buffer, which the next {!next} overwrites: read it in
    place, and copy what must outlive that. *)

val line_off : reader -> int
val line_len : reader -> int

type writer
(** A connection's output: each message is put together in buffers the
    writer keeps, newline included, and sent with one write, continued
    where a partial write stopped. Not thread-safe. A send raises
    [Unix.Unix_error] when the write fails. *)

val writer : Unix.file_descr -> writer

val send_request : writer -> id:int64 -> request -> unit
(** {!encode_request} and a newline. *)

val send_line : writer -> string -> unit
(** The line and a newline. *)

val send_splice : writer -> id:int64 -> ?index:int -> served:string -> string -> unit
(** {!splice} and a newline; the measurement line is copied once. *)

val request_to : writer -> id:int64 -> request -> unit
(** {!send_request}'s message, put together in the writer but not sent
    (the allocation ledger times that part alone). *)

val splice_to : writer -> id:int64 -> ?index:int -> served:string -> string -> unit
(** {!send_splice}'s message, put together but not sent. *)

val sweep_batches :
  max_line:int -> spec -> Salam_dse.Point.t list -> Salam_dse.Point.t list list
(** [points] cut, in order, into runs whose [Sweep] request line is at
    most [max_line] bytes for any id ({!Client.sweep} passes
    {!max_line}); a point whose line alone is longer is a run of its
    own. An empty list is one empty run. *)

val decode_request : string -> (int64 * request, int64 * string) result
(** [decode_request l = Ok (id, r)] implies [encode_request ~id r = l].
    [Error (id, msg)] carries the request id once it has been read
    (else 0), so the error reply can still be routed. Points are read
    by {!Salam_dse.Point.of_compact}, which accepts only the text
    {!Salam_dse.Point.to_compact} writes. *)

val decode_request_sub : string -> int -> int -> (int64 * request, int64 * string) result
(** [decode_request_sub s off len] is {!decode_request} of the [len]
    bytes of [s] from [off], read in place; error texts are the same. *)

val encode_response : id:int64 -> response -> string
(** [Result] and [Sweep_point] go through {!splice} on
    {!Salam_dse.Measurement.to_line}. *)

val splice : id:int64 -> ?index:int -> served:string -> string -> string
(** [splice ~id ?index ~served line] is a [result] reply, or a [point]
    reply when [index] is given, around a measurement line: the envelope
    [{"id":…,"type":…,["index":…,]"served":…,] followed by [line]'s
    bytes after its ['{']. Raises [Invalid_argument] unless [line] is an
    object with at least one member. *)

val decode_response :
  string -> (int64 * [ `Terminal of response | `Interim of response ], string) result
(** [`Interim] is a [Sweep_point]; [`Terminal] ends the request. A
    line that decodes is what {!encode_response} writes for what it
    decodes to ({!splice} for a measurement reply). The line is parsed
    once: the envelope by position, and the rest of the line by
    {!Salam_dse.Measurement.of_cursor}, in place; no member list is
    built. *)

val decode_response_sub :
  string ->
  int ->
  int ->
  (int64 * [ `Terminal of response | `Interim of response ], string) result
(** {!decode_response} of the [len] bytes of [s] from [off], read in
    place; error texts are the same. *)
