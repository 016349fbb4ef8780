(* The wire protocol: newline-delimited flat JSON objects, one message
   per line, both directions — the same hand-rolled codec the result
   store speaks ({!Salam_dse.Jsonl}), so the daemon needs no JSON
   library and every float on the wire round-trips bit-exactly.

   A measurement reply is the store's line with an envelope spliced in
   front ([splice]): the daemon never encodes a measurement it already
   holds as bytes, and a client reads the envelope by position and hands
   the rest of the line, in place, to the measurement's positional
   pass.

   Requests carry a client-chosen [id]; every line the server sends
   back for that request echoes it, so a client can pipeline. A sweep's
   [type=point] lines precede exactly one terminal line per request
   ([type=result|done|pong|stats|stopping|error]).
   Malformed input is answered loudly with [type=error] and never
   crashes the daemon. *)

module Jsonl = Salam_dse.Jsonl
module Point = Salam_dse.Point
module Measurement = Salam_dse.Measurement

type spec = {
  workload : string;  (** "gemm" or a suite workload name *)
  gemm_n : int;
  invocations : int;
  fast_forward : int option;
}

let default_spec = { workload = "gemm"; gemm_n = 16; invocations = 1; fast_forward = None }

type request =
  | Ping
  | Sim of spec * Point.t
  | Sweep of spec * Point.t list
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
  | Result of { served : string; m : Measurement.t }
  | Sweep_point of { index : int; served : string; m : Measurement.t }
  | Sweep_done of { points : int; hits : int; sims : int; deduped : int }
  | Stats_reply of server_stats
  | Stopping
  | Failed of string

(* --- encoding ----------------------------------------------------------- *)

let i n = Jsonl.Int (Int64.of_int n)

(* compact points, separated by ';', written straight into the request;
   a point whose [hw_db] needs escaping sends them through the string
   encoder *)
let add_points s k ps =
  if List.exists (fun p -> Jsonl.has_escapes p.Point.hw_db) ps then
    Jsonl.add_member s ~first:false k (Jsonl.Str (String.concat ";" (List.map Point.to_compact ps)))
  else begin
    Jsonl.add_key s ~first:false k;
    Jsonl.add_char s '"';
    List.iteri
      (fun j p ->
        if j > 0 then Jsonl.add_char s ';';
        Point.add_compact s p)
      ps;
    Jsonl.add_char s '"'
  end

let encode_request_into s ~id req =
  let add k v = Jsonl.add_member s ~first:false k v in
  let with_spec op spec =
    add "op" (Jsonl.Str op);
    add "workload" (Jsonl.Str spec.workload);
    add "gemm_n" (i spec.gemm_n);
    add "invocations" (i spec.invocations);
    Option.iter (fun k -> add "fast_forward" (i k)) spec.fast_forward
  in
  Jsonl.add_member s ~first:true "id" (Jsonl.Int id);
  (match req with
  | Ping -> add "op" (Jsonl.Str "ping")
  | Stats -> add "op" (Jsonl.Str "stats")
  | Shutdown -> add "op" (Jsonl.Str "shutdown")
  | Sim (spec, p) ->
      with_spec "sim" spec;
      add_points s "point" [ p ]
  | Sweep (spec, ps) ->
      with_spec "sweep" spec;
      add_points s "points" ps);
  Jsonl.add_char s '}'

let encode_request ~id req =
  let b = Buffer.create 256 in
  encode_request_into (Jsonl.To_buffer b) ~id req;
  Buffer.contents b

(* The longest line either end reads, newline excluded: 8 MiB, about
   40,000 compact points of some 200 bytes. A longer line is refused and
   its connection closed, so a peer that never sends a newline costs the
   reader at most this much memory. *)
let max_line = 8 lsl 20

(* --- reading lines ------------------------------------------------------ *)

(* A connection's input: the bytes read from its socket and not yet
   consumed are [buf.[start .. stop-1]]; the last line read is the
   [line_len] bytes from [line_off], before them. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable line_off : int;
  mutable line_len : int;
}

(* a connection's read buffer, grown while a longer line comes in *)
let reader_size = 4096

let reader fd =
  { fd; buf = Bytes.create reader_size; start = 0; stop = 0; line_off = 0; line_len = 0 }

(* The first newline in [buf.[i .. stop-1]], or [stop]. Eight bytes at a
   time while no byte of the word is one: a word [x] holds a zero byte
   exactly when [(x - 0x01..01) land (lnot x) land 0x80..80] is not
   zero. A byte loop takes about 1 us on an 884-byte reply, five times
   this, and made the client slower than [input_line]. *)
let find_newline buf i stop =
  let i = ref i in
  while
    !i + 8 <= stop
    &&
    let x = Int64.logxor (Bytes.get_int64_le buf !i) 0x0a0a0a0a0a0a0a0aL in
    Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
      0x8080808080808080L
    = 0L
  do
    i := !i + 8
  done;
  while !i < stop && Bytes.get buf !i <> '\n' do
    incr i
  done;
  !i

(* The pending bytes before [from] hold no newline. *)
let rec scan r ~from =
  let nl = find_newline r.buf from r.stop in
  if nl < r.stop then begin
    r.line_off <- r.start;
    r.line_len <- nl - r.start;
    r.start <- nl + 1;
    `Line
  end
  else
    let pending = r.stop - r.start in
    if pending > max_line then `Too_long
    else begin
      (* room to read into: move the pending bytes to the front, and
         grow the buffer when they fill it, up to [max_line + 1] *)
      if r.stop = Bytes.length r.buf then begin
        let size = Bytes.length r.buf in
        let buf =
          if pending < size then r.buf else Bytes.create (min (2 * size) (max_line + 1))
        in
        Bytes.blit r.buf r.start buf 0 pending;
        r.buf <- buf;
        r.start <- 0;
        r.stop <- pending
      end;
      match Unix.read r.fd r.buf r.stop (Bytes.length r.buf - r.stop) with
      | 0 ->
          if pending = 0 then `Eof
          else begin
            r.line_off <- r.start;
            r.line_len <- pending;
            r.start <- r.stop;
            `Line
          end
      | k ->
          r.stop <- r.stop + k;
          scan r ~from:(r.stop - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan r ~from:r.stop
      | exception Unix.Unix_error _ -> `Eof
    end

let next r =
  (* the last line's bytes are consumed now *)
  if r.start = r.stop then begin
    (* a long line's buffer is not kept *)
    if Bytes.length r.buf > reader_size then r.buf <- Bytes.create reader_size;
    r.start <- 0;
    r.stop <- 0
  end;
  scan r ~from:r.start

let line_src r = Bytes.unsafe_to_string r.buf
let line_off r = r.line_off
let line_len r = r.line_len

(* --- writing lines ------------------------------------------------------ *)

(* A connection's output: a message is put together in [msg] (a line's
   head), written through [sink], then made ready as the first [ready]
   bytes of [out], the whole line with its newline, and sent with one
   write. *)
type writer = {
  wfd : Unix.file_descr;
  msg : Buffer.t;
  sink : Jsonl.sink;  (** [To_buffer msg] *)
  mutable out : Bytes.t;
  mutable ready : int;
}

let writer_size = 4096

let writer fd =
  let msg = Buffer.create 256 in
  { wfd = fd; msg; sink = Jsonl.To_buffer msg; out = Bytes.create writer_size; ready = 0 }

(* a partial write goes on where it stopped *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.single_write fd b off len with
    | k -> write_all fd b (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

(* [w.msg], then the [len] bytes of [s] from [off], then a newline,
   made ready to send *)
let stage w s off len =
  let head = Buffer.length w.msg in
  let total = head + len + 1 in
  if Bytes.length w.out < total then w.out <- Bytes.create (max total (2 * Bytes.length w.out));
  Buffer.blit w.msg 0 w.out 0 head;
  Bytes.blit_string s off w.out head len;
  Bytes.set w.out (total - 1) '\n';
  Buffer.clear w.msg;
  w.ready <- total

let flush w =
  let out = w.out and n = w.ready in
  w.ready <- 0;
  (* a long message's buffer is not kept *)
  if Bytes.length out > 16 * writer_size then w.out <- Bytes.create writer_size;
  write_all w.wfd out 0 n

let request_to w ~id req =
  Buffer.clear w.msg;
  encode_request_into w.sink ~id req;
  stage w "" 0 0

let send_request w ~id req =
  request_to w ~id req;
  flush w

let send_line w line =
  Buffer.clear w.msg;
  stage w line 0 (String.length line);
  flush w

(* halve a run of points until its sweep line fits, whatever its id:
   an id is at most 20 bytes, as [Int64.min_int] spells it *)
let sweep_batches ~max_line spec points =
  let fits ps = String.length (encode_request ~id:Int64.min_int (Sweep (spec, ps))) <= max_line in
  let rec cut ps rest =
    match ps with
    | [] | [ _ ] -> ps :: rest
    | _ when fits ps -> ps :: rest
    | _ ->
        let half = List.length ps / 2 in
        cut (List.filteri (fun j _ -> j < half) ps) (cut (List.filteri (fun j _ -> j >= half) ps) rest)
  in
  cut points []

(* The envelope, then the measurement line's own members: its bytes
   after the opening '{'. *)
let envelope_into s ~id ?index ~served line =
  if String.length line < 2 || line.[0] <> '{' || line.[1] = '}' then
    invalid_arg "Protocol.splice: not a measurement line";
  Jsonl.add_member s ~first:true "id" (Jsonl.Int id);
  (match index with
  | None -> Jsonl.add_member s ~first:false "type" (Jsonl.Str "result")
  | Some index ->
      Jsonl.add_member s ~first:false "type" (Jsonl.Str "point");
      Jsonl.add_member s ~first:false "index" (i index));
  Jsonl.add_member s ~first:false "served" (Jsonl.Str served);
  Jsonl.add_char s ','

let splice ~id ?index ~served line =
  let b = Buffer.create 64 in
  envelope_into (Jsonl.To_buffer b) ~id ?index ~served line;
  let head = Buffer.length b and tail = String.length line - 1 in
  let reply = Bytes.create (head + tail) in
  Buffer.blit b 0 reply 0 head;
  Bytes.blit_string line 1 reply head tail;
  Bytes.unsafe_to_string reply

(* the reply is copied once, from the stored line into [w]'s output *)
let splice_to w ~id ?index ~served line =
  Buffer.clear w.msg;
  envelope_into w.sink ~id ?index ~served line;
  stage w line 1 (String.length line - 1)

let send_splice w ~id ?index ~served line =
  splice_to w ~id ?index ~served line;
  flush w

let encode_response ~id resp =
  let base ty rest = Jsonl.encode (("id", Jsonl.Int id) :: ("type", Jsonl.Str ty) :: rest) in
  match resp with
  | Pong -> base "pong" []
  | Stopping -> base "stopping" []
  | Failed e -> base "error" [ ("error", Jsonl.Str e) ]
  | Result { served; m } -> splice ~id ~served (Measurement.to_line m)
  | Sweep_point { index; served; m } -> splice ~id ~index ~served (Measurement.to_line m)
  | Sweep_done { points; hits; sims; deduped } ->
      base "done"
        [ ("points", i points); ("hits", i hits); ("sims", i sims); ("deduped", i deduped) ]
  | Stats_reply s ->
      base "stats"
        [
          ("hits", i s.st_hits);
          ("misses", i s.st_misses);
          ("deduped", i s.st_deduped);
          ("simulated", i s.st_simulated);
          ("inflight", i s.st_inflight);
          ("queue_depth", i s.st_queue_depth);
          ("store_size", i s.st_store_size);
          ("requests", i s.st_requests);
        ]

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* A line's envelope keeps, per key it may carry, where the member's
   value lies in the line; a value is only read when it is asked for.
   The first value of a key wins, as a lookup by key would find it, and
   other keys are left to the caller. *)
type extent = { kind : Jsonl.kind; src : string; off : int; len : int }

type envelope = { keys : string array; slots : extent option array }

let envelope keys = { keys; slots = Array.make (Array.length keys) None }

(* key [i]'s slot takes the cursor's member unless it already has one *)
let hold env i (c : Jsonl.cursor) =
  if Option.is_none env.slots.(i) then
    env.slots.(i) <- Some { kind = c.kind; src = c.src; off = c.off; len = c.len }

let take env (c : Jsonl.cursor) =
  let i = Jsonl.find_key env.keys c.ksrc c.koff c.klen in
  if i >= 0 then hold env i c

let heads keys = Array.map (fun k -> "\"" ^ k ^ "\":") keys

(* The members a canonical line starts with, read by position: each
   next member whose head is that of one of the first [upto] keys, in
   [keys] order after the last one read, is read in place (a key
   canonical lines may leave out is passed over). The first member that
   is not ends it, and is left to {!take}. *)
let read_heads env heads ~upto c =
  let k = ref 0 in
  while !k < upto do
    let j = ref !k in
    while !j < upto && not (Jsonl.head c heads.(!j)) do
      incr j
    done;
    if !j < upto then begin
      Jsonl.value c;
      hold env !j c
    end;
    k := !j + 1
  done

(* Members are named by their place in the envelope's keys; an error
   names the key. *)
let name env i = env.keys.(i)

(* string member [i] is [v], compared where it lies *)
let is env i v =
  match env.slots.(i) with
  | Some { kind = Jsonl.String; src; off; len } -> Jsonl.key_is src off len v
  | _ -> false

let str env i =
  match env.slots.(i) with
  | Some { kind = Jsonl.String; src; off; len } -> Some (String.sub src off len)
  | _ -> None

let int64 env i =
  match env.slots.(i) with
  | Some { kind = Jsonl.Integer; src; off; len } -> Some (Jsonl.int64_at src off len)
  | _ -> None

(* a string member, left where it lies *)
let string_extent env i =
  match env.slots.(i) with
  | Some ({ kind = Jsonl.String; _ } as e) -> Ok e
  | Some _ | None -> Error (Printf.sprintf "missing or non-string field %S" (name env i))

let field_str env i = Result.map (fun e -> String.sub e.src e.off e.len) (string_extent env i)

let field_int env i ~default =
  match env.slots.(i) with
  | None -> Ok default
  | Some { kind = Jsonl.Integer; src; off; len } -> (
      match Jsonl.int_at src off len with
      | n -> Ok n
      | exception Jsonl.Out_of_range ->
          Error (Printf.sprintf "field %S is outside the int range" (name env i)))
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" (name env i))

(* in the order [encode_request] writes them *)
let request_keys =
  [|
    "id"; "op"; "workload"; "gemm_n"; "invocations"; "fast_forward"; "point"; "points";
  |]

let request_heads = heads request_keys

(* request members by their place in [request_keys] *)
module Rq = struct
  let id = 0
  let op = 1
  let workload = 2
  let gemm_n = 3
  let invocations = 4
  let fast_forward = 5
  let point = 6
  let points = 7
end

let decode_spec env =
  let* workload = field_str env Rq.workload in
  let* gemm_n = field_int env Rq.gemm_n ~default:default_spec.gemm_n in
  let* invocations = field_int env Rq.invocations ~default:1 in
  let* fast_forward =
    match env.slots.(Rq.fast_forward) with
    | None -> Ok None
    | Some _ -> Result.map Option.some (field_int env Rq.fast_forward ~default:0)
  in
  if invocations < 1 then Error "invocations must be at least 1"
  else if gemm_n < 1 then Error "gemm_n must be at least 1"
  else
    match fast_forward with
    | Some k when k < 0 || k >= invocations ->
        Error
          (Printf.sprintf "fast_forward must satisfy 0 <= %d < invocations (%d)" k invocations)
    | _ -> Ok { workload; gemm_n; invocations; fast_forward }

(* the points of a "points" member: compact points separated by ';',
   each read in place *)
let decode_points env =
  let* { src; off; len; _ } = string_extent env Rq.points in
  if len = 0 then Error "empty point list"
  else
    let stop = off + len in
    let rec go acc start =
      let j = ref start in
      while !j < stop && src.[!j] <> ';' do
        incr j
      done;
      match Point.of_compact_sub src start (!j - start) with
      | Error e -> Error e
      | Ok p -> if !j = stop then Ok (List.rev (p :: acc)) else go (p :: acc) (!j + 1)
    in
    go [] off

let decode_request_sub src off len =
  let env = envelope request_keys in
  let c = Jsonl.cursor_sub src off len in
  match
    read_heads env request_heads ~upto:(Array.length request_keys) c;
    while Jsonl.member c do
      take env c
    done
  with
  | exception Jsonl.Syntax e -> Error (0L, Printf.sprintf "bad request line: %s" e)
  | () -> (
      (* an error reply echoes the id when one was parseable, else 0 *)
      match int64 env Rq.id with
      | None -> Error (0L, "missing integer field \"id\"")
      | Some id -> (
          let fail e = Error (id, e) in
          let op = Rq.op in
          if is env op "sim" then
            match
              let* spec = decode_spec env in
              let* { src; off; len; _ } = string_extent env Rq.point in
              let* p = Point.of_compact_sub src off len in
              Ok (Sim (spec, p))
            with
            | Ok req -> Ok (id, req)
            | Error e -> fail ("sim: " ^ e)
          else if is env op "sweep" then
            match
              let* spec = decode_spec env in
              let* ps = decode_points env in
              Ok (Sweep (spec, ps))
            with
            | Ok req -> Ok (id, req)
            | Error e -> fail ("sweep: " ^ e)
          else if is env op "ping" then Ok (id, Ping)
          else if is env op "stats" then Ok (id, Stats)
          else if is env op "shutdown" then Ok (id, Shutdown)
          else
            match str env op with
            | None -> fail "missing string field \"op\""
            | Some op -> fail (Printf.sprintf "unknown op %S (ping|sim|sweep|stats|shutdown)" op)))

let decode_request line = decode_request_sub line 0 (String.length line)

(* a measurement reply's envelope first, in the order [splice] writes
   it *)
let response_keys =
  [|
    "id"; "type"; "index"; "served"; "error"; "points"; "hits"; "sims"; "deduped"; "misses";
    "simulated"; "inflight"; "queue_depth"; "store_size"; "requests";
  |]

let response_heads = heads response_keys

(* reply members by their place in [response_keys] *)
module Rs = struct
  let id = 0
  let type_ = 1
  let index = 2
  let served = 3
  let error = 4
  let points = 5
  let hits = 6
  let sims = 7
  let deduped = 8
  let misses = 9
  let simulated = 10
  let inflight = 11
  let queue_depth = 12
  let store_size = 13
  let requests = 14
end

(* The envelope's members a reply starts with are read by position;
   the measurement's positional pass then reads the rest in place and
   hands the envelope's other members back. Envelope keys are not
   measurement fields, so neither takes the other's members. A reply
   that carries no measurement reads as one with every field
   missing. *)
let decode_response_sub src off len =
  let env = envelope response_keys in
  let c = Jsonl.cursor_sub src off len in
  match
    read_heads env response_heads ~upto:(Rs.served + 1) c;
    Measurement.of_cursor ~other:(take env) c
  with
  | exception Jsonl.Syntax e -> Error (Printf.sprintf "bad response line: %s" e)
  | measurement -> (
      match int64 env Rs.id with
      | None -> Error "response missing integer field \"id\""
      | Some id -> (
          let ty = Rs.type_ in
          if is env ty "result" then
            let* served = field_str env Rs.served in
            match measurement with
            | Ok m -> Ok (id, `Terminal (Result { served; m }))
            | Error e -> Error ("result: " ^ e)
          else if is env ty "point" then
            let* served = field_str env Rs.served in
            let* index = field_int env Rs.index ~default:(-1) in
            if index < 0 then Error "point response missing \"index\""
            else
              match measurement with
              | Ok m -> Ok (id, `Interim (Sweep_point { index; served; m }))
              | Error e -> Error ("point: " ^ e)
          else if is env ty "pong" then Ok (id, `Terminal Pong)
          else if is env ty "stopping" then Ok (id, `Terminal Stopping)
          else if is env ty "error" then
            match str env Rs.error with
            | Some e -> Ok (id, `Terminal (Failed e))
            | None -> Error "error response missing \"error\""
          else if is env ty "done" then
            let* points = field_int env Rs.points ~default:(-1) in
            let* hits = field_int env Rs.hits ~default:0 in
            let* sims = field_int env Rs.sims ~default:0 in
            let* deduped = field_int env Rs.deduped ~default:0 in
            if points < 0 then Error "done response missing \"points\""
            else Ok (id, `Terminal (Sweep_done { points; hits; sims; deduped }))
          else if is env ty "stats" then
            let* st_hits = field_int env Rs.hits ~default:0 in
            let* st_misses = field_int env Rs.misses ~default:0 in
            let* st_deduped = field_int env Rs.deduped ~default:0 in
            let* st_simulated = field_int env Rs.simulated ~default:0 in
            let* st_inflight = field_int env Rs.inflight ~default:0 in
            let* st_queue_depth = field_int env Rs.queue_depth ~default:0 in
            let* st_store_size = field_int env Rs.store_size ~default:0 in
            let* st_requests = field_int env Rs.requests ~default:0 in
            Ok
              ( id,
                `Terminal
                  (Stats_reply
                     {
                       st_hits;
                       st_misses;
                       st_deduped;
                       st_simulated;
                       st_inflight;
                       st_queue_depth;
                       st_store_size;
                       st_requests;
                     }) )
          else
            match str env ty with
            | None -> Error "response missing string field \"type\""
            | Some ty -> Error (Printf.sprintf "unknown response type %S" ty)))

let decode_response line = decode_response_sub line 0 (String.length line)
