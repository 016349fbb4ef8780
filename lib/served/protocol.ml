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

(* Each decoder reads a line's members in the order its writer writes
   them, each where that order puts it: [encode_request] for requests,
   [splice] and [encode_response] for replies. *)

exception Refused of string

let refuse fmt = Printf.ksprintf (fun e -> raise (Refused e)) fmt

let head k = "\"" ^ k ^ "\":"

let h_id = head "id"
let h_op = head "op"
let h_workload = head "workload"
let h_gemm_n = head "gemm_n"
let h_invocations = head "invocations"
let h_fast_forward = head "fast_forward"
let h_point = head "point"
let h_points = head "points"
let h_type = head "type"
let h_index = head "index"
let h_served = head "served"
let h_error = head "error"
let h_hits = head "hits"
let h_sims = head "sims"
let h_deduped = head "deduped"
let h_misses = head "misses"
let h_simulated = head "simulated"
let h_inflight = head "inflight"
let h_queue_depth = head "queue_depth"
let h_store_size = head "store_size"
let h_requests = head "requests"

(* the key a head names, for an error message *)
let key h = String.sub h 1 (String.length h - 3)

(* the member whose head is [h], at the cursor *)
let field c h =
  if not (Jsonl.head c h) then refuse "missing field %S at offset %d" (key h) (Jsonl.offset c)

(* the value of the integer member whose head is [h] *)
let int_value (c : Jsonl.cursor) h =
  if Jsonl.plain_int c then c.int
  else begin
    Jsonl.value c;
    if c.kind <> Jsonl.Integer then refuse "field %S must be an integer" (key h);
    match Jsonl.int_at c.src c.off c.len with
    | n -> n
    | exception Jsonl.Out_of_range -> refuse "field %S is outside the int range" (key h)
  end

let int c h =
  field c h;
  int_value c h

let int64 (c : Jsonl.cursor) h =
  field c h;
  Jsonl.value c;
  if c.kind <> Jsonl.Integer then refuse "field %S must be an integer" (key h);
  Jsonl.int64_at c.src c.off c.len

(* a string member, left where it lies: the [len] bytes of [c.src]
   from [c.off] *)
let string_at (c : Jsonl.cursor) h =
  field c h;
  Jsonl.value c;
  if c.kind <> Jsonl.String then refuse "field %S must be a string" (key h)

let text (c : Jsonl.cursor) h =
  string_at c h;
  String.sub c.src c.off c.len

let is (c : Jsonl.cursor) v = Jsonl.key_is c.src c.off c.len v

let spec c =
  let workload = text c h_workload in
  let gemm_n = int c h_gemm_n in
  let invocations = int c h_invocations in
  (* present exactly when the writer had one *)
  let fast_forward =
    if Jsonl.head c h_fast_forward then Some (int_value c h_fast_forward) else None
  in
  if invocations < 1 then refuse "field \"invocations\" must be at least 1";
  if gemm_n < 1 then refuse "field \"gemm_n\" must be at least 1";
  (match fast_forward with
  | Some k when k < 0 || k >= invocations ->
      refuse "field \"fast_forward\" must satisfy 0 <= %d < invocations (%d)" k invocations
  | _ -> ());
  { workload; gemm_n; invocations; fast_forward }

let of_compact (c : Jsonl.cursor) off len =
  match Point.of_compact_sub c.src off len with Ok p -> p | Error e -> raise (Refused e)

(* the points of a "points" member: compact points separated by ';',
   each read in place *)
let points (c : Jsonl.cursor) =
  string_at c h_points;
  if c.len = 0 then refuse "field \"points\" must not be empty";
  let src = c.src and stop = c.off + c.len in
  let rec go acc start =
    let j = ref start in
    while !j < stop && src.[!j] <> ';' do
      incr j
    done;
    let acc = of_compact c start (!j - start) :: acc in
    if !j = stop then List.rev acc else go acc (!j + 1)
  in
  go [] c.off

let sim c =
  let spec = spec c in
  string_at c h_point;
  let p = of_compact c c.off c.len in
  Jsonl.close c;
  Sim (spec, p)

let sweep c =
  let spec = spec c in
  let ps = points c in
  Jsonl.close c;
  Sweep (spec, ps)

let request c =
  string_at c h_op;
  if is c "sim" then match sim c with r -> r | exception Refused e -> refuse "sim: %s" e
  else if is c "sweep" then match sweep c with r -> r | exception Refused e -> refuse "sweep: %s" e
  else
    let r =
      if is c "ping" then Ping
      else if is c "stats" then Stats
      else if is c "shutdown" then Shutdown
      else
        refuse "field \"op\" must be ping, sim, sweep, stats or shutdown, not %S"
          (String.sub c.src c.off c.len)
    in
    Jsonl.close c;
    r

let decode_request_sub src off len =
  let c = Jsonl.cursor_sub src off len in
  (* an error reply echoes the id once it has been read, else 0 *)
  let id = ref 0L in
  match
    id := int64 c h_id;
    request c
  with
  | r -> Ok (!id, r)
  | exception Refused e -> Error (!id, e)
  | exception Jsonl.Syntax e -> Error (!id, "bad request line: " ^ e)

let decode_request line = decode_request_sub line 0 (String.length line)

let measurement what c =
  match Measurement.of_cursor c with Ok m -> m | Error e -> refuse "%s: %s" what e

let response c =
  let id = int64 c h_id in
  string_at c h_type;
  let reply =
    if is c "result" then
      let served = text c h_served in
      `Terminal (Result { served; m = measurement "result" c })
    else if is c "point" then
      let index = int c h_index in
      let served = text c h_served in
      `Interim (Sweep_point { index; served; m = measurement "point" c })
    else begin
      let r =
        if is c "pong" then Pong
        else if is c "stopping" then Stopping
        else if is c "error" then Failed (text c h_error)
        else if is c "done" then
          let points = int c h_points in
          let hits = int c h_hits in
          let sims = int c h_sims in
          let deduped = int c h_deduped in
          Sweep_done { points; hits; sims; deduped }
        else if is c "stats" then
          let st_hits = int c h_hits in
          let st_misses = int c h_misses in
          let st_deduped = int c h_deduped in
          let st_simulated = int c h_simulated in
          let st_inflight = int c h_inflight in
          let st_queue_depth = int c h_queue_depth in
          let st_store_size = int c h_store_size in
          let st_requests = int c h_requests in
          Stats_reply
            {
              st_hits;
              st_misses;
              st_deduped;
              st_simulated;
              st_inflight;
              st_queue_depth;
              st_store_size;
              st_requests;
            }
        else refuse "field \"type\" names no reply: %S" (String.sub c.src c.off c.len)
      in
      Jsonl.close c;
      `Terminal r
    end
  in
  (id, reply)

let decode_response_sub src off len =
  match response (Jsonl.cursor_sub src off len) with
  | r -> Ok r
  | exception Refused e -> Error e
  | exception Jsonl.Syntax e -> Error ("bad response line: " ^ e)

let decode_response line = decode_response_sub line 0 (String.length line)
