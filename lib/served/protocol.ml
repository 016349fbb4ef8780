(* The wire protocol: newline-delimited flat JSON objects, one message
   per line, both directions — the same hand-rolled codec the result
   store speaks ({!Salam_dse.Jsonl}), so the daemon needs no JSON
   library and every float on the wire round-trips bit-exactly.

   A measurement reply is the store's line with an envelope spliced in
   front ([splice]): the daemon never encodes a measurement it already
   holds as bytes, and a client decodes the reply in one pass that fills
   the envelope and the measurement together.

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
let add_points b k ps =
  if List.exists (fun p -> Jsonl.has_escapes p.Point.hw_db) ps then
    Jsonl.add_member b ~first:false k (Jsonl.Str (String.concat ";" (List.map Point.to_compact ps)))
  else begin
    Jsonl.add_key b ~first:false k;
    Buffer.add_char b '"';
    List.iteri
      (fun j p ->
        if j > 0 then Buffer.add_char b ';';
        Point.add_compact b p)
      ps;
    Buffer.add_char b '"'
  end

let encode_request ~id req =
  let b = Buffer.create 256 in
  let add k v = Jsonl.add_member b ~first:false k v in
  let with_spec op spec =
    add "op" (Jsonl.Str op);
    add "workload" (Jsonl.Str spec.workload);
    add "gemm_n" (i spec.gemm_n);
    add "invocations" (i spec.invocations);
    Option.iter (fun k -> add "fast_forward" (i k)) spec.fast_forward
  in
  Jsonl.add_member b ~first:true "id" (Jsonl.Int id);
  (match req with
  | Ping -> add "op" (Jsonl.Str "ping")
  | Stats -> add "op" (Jsonl.Str "stats")
  | Shutdown -> add "op" (Jsonl.Str "shutdown")
  | Sim (spec, p) ->
      with_spec "sim" spec;
      add_points b "point" [ p ]
  | Sweep (spec, ps) ->
      with_spec "sweep" spec;
      add_points b "points" ps);
  Buffer.add_char b '}';
  Buffer.contents b

(* The longest line either end reads, newline excluded: 8 MiB, about
   40,000 compact points of some 200 bytes. A longer line is refused and
   its connection closed, so a peer that never sends a newline costs the
   reader at most this much memory. *)
let max_line = 8 lsl 20

(* --- reading lines ------------------------------------------------------ *)

(* A connection's input: the bytes read from its socket and not yet
   consumed are [buf.[start .. stop-1]]. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
}

(* a connection's read buffer, grown while a longer line comes in *)
let reader_size = 4096

let reader fd = { fd; buf = Bytes.create reader_size; start = 0; stop = 0 }

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

(* The pending bytes from [from] on hold no newline yet. *)
let rec scan r ~from =
  let nl = find_newline r.buf from r.stop in
  if nl < r.stop then begin
    let line = Bytes.sub_string r.buf r.start (nl - r.start) in
    r.start <- nl + 1;
    (* a long line's buffer is not kept once its bytes are consumed *)
    if r.start = r.stop && Bytes.length r.buf > reader_size then begin
      r.buf <- Bytes.create reader_size;
      r.start <- 0;
      r.stop <- 0
    end;
    `Line line
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
            let line = Bytes.sub_string r.buf r.start pending in
            r.start <- r.stop;
            `Line line
          end
      | k ->
          r.stop <- r.stop + k;
          scan r ~from:(r.stop - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan r ~from:r.stop
      | exception Unix.Unix_error _ -> `Eof
    end

let next_line r = scan r ~from:r.start

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
   after the opening '{', copied once into the reply. *)
let splice ~id ?index ~served line =
  if String.length line < 2 || line.[0] <> '{' || line.[1] = '}' then
    invalid_arg "Protocol.splice: not a measurement line";
  let b = Buffer.create 64 in
  Jsonl.add_member b ~first:true "id" (Jsonl.Int id);
  (match index with
  | None -> Jsonl.add_member b ~first:false "type" (Jsonl.Str "result")
  | Some index ->
      Jsonl.add_member b ~first:false "type" (Jsonl.Str "point");
      Jsonl.add_member b ~first:false "index" (i index));
  Jsonl.add_member b ~first:false "served" (Jsonl.Str served);
  Buffer.add_char b ',';
  let head = Buffer.length b and tail = String.length line - 1 in
  let reply = Bytes.create (head + tail) in
  Buffer.blit b 0 reply 0 head;
  Bytes.blit_string line 1 reply head tail;
  Bytes.unsafe_to_string reply

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

(* an envelope key's slot takes the member unless it already has one *)
let take env ksrc koff klen kind src off len =
  let i = Jsonl.find_key env.keys ksrc koff klen in
  if i >= 0 && Option.is_none env.slots.(i) then env.slots.(i) <- Some { kind; src; off; len }

let get env k = env.slots.(Jsonl.find_key env.keys k 0 (String.length k))

let str env k =
  match get env k with
  | Some { kind = Jsonl.String; src; off; len } -> Some (String.sub src off len)
  | _ -> None

let int64 env k =
  match get env k with
  | Some { kind = Jsonl.Integer; src; off; len } -> Some (Jsonl.int64_at src off len)
  | _ -> None

(* a string member, left where it lies *)
let string_extent env k =
  match get env k with
  | Some ({ kind = Jsonl.String; _ } as e) -> Ok e
  | Some _ | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let field_str env k = Result.map (fun e -> String.sub e.src e.off e.len) (string_extent env k)

let int_value k = function
  | { kind = Jsonl.Integer; src; off; len } -> (
      match Jsonl.int_at src off len with
      | n -> Ok n
      | exception Jsonl.Out_of_range -> Error (Printf.sprintf "field %S is outside the int range" k))
  | _ -> Error (Printf.sprintf "field %S must be an integer" k)

let field_int env k ~default = match get env k with None -> Ok default | Some v -> int_value k v

let request_keys =
  [|
    "id"; "op"; "workload"; "gemm_n"; "invocations"; "fast_forward"; "point"; "points";
  |]

let decode_spec env =
  let* workload = field_str env "workload" in
  let* gemm_n = field_int env "gemm_n" ~default:default_spec.gemm_n in
  let* invocations = field_int env "invocations" ~default:1 in
  let* fast_forward =
    match get env "fast_forward" with
    | None -> Ok None
    | Some v -> Result.map Option.some (int_value "fast_forward" v)
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
  let* { src; off; len; _ } = string_extent env "points" in
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

let decode_request line =
  let env = envelope request_keys in
  match Jsonl.iter_fields line (take env) with
  | Error e -> Error (0L, Printf.sprintf "bad request line: %s" e)
  | Ok () -> (
      (* an error reply echoes the id when one was parseable, else 0 *)
      match int64 env "id" with
      | None -> Error (0L, "missing integer field \"id\"")
      | Some id -> (
          let fail e = Error (id, e) in
          match str env "op" with
          | None -> fail "missing string field \"op\""
          | Some "ping" -> Ok (id, Ping)
          | Some "stats" -> Ok (id, Stats)
          | Some "shutdown" -> Ok (id, Shutdown)
          | Some "sim" -> (
              match
                let* spec = decode_spec env in
                let* { src; off; len; _ } = string_extent env "point" in
                let* p = Point.of_compact_sub src off len in
                Ok (Sim (spec, p))
              with
              | Ok req -> Ok (id, req)
              | Error e -> fail ("sim: " ^ e))
          | Some "sweep" -> (
              match
                let* spec = decode_spec env in
                let* ps = decode_points env in
                Ok (Sweep (spec, ps))
              with
              | Ok req -> Ok (id, req)
              | Error e -> fail ("sweep: " ^ e))
          | Some op -> fail (Printf.sprintf "unknown op %S (ping|sim|sweep|stats|shutdown)" op)))

let response_keys =
  [|
    "id"; "type"; "served"; "index"; "error"; "points"; "hits"; "sims"; "deduped"; "misses";
    "simulated"; "inflight"; "queue_depth"; "store_size"; "requests";
  |]

(* One pass over the line offers each member to the measurement slots
   first and keeps the envelope's; a result or point reply then builds
   its measurement from the slots, with no member list. Envelope keys
   are not measurement fields, so they never land in a measurement
   slot. *)
let decode_response line =
  let ms = Measurement.slots () in
  let env = envelope response_keys in
  match
    Jsonl.iter_fields line (fun ksrc koff klen kind src off len ->
        if not (Measurement.fill ms ksrc koff klen kind src off len) then
          take env ksrc koff klen kind src off len)
  with
  | Error e -> Error (Printf.sprintf "bad response line: %s" e)
  | Ok () -> (
      match int64 env "id" with
      | None -> Error "response missing integer field \"id\""
      | Some id -> (
          match str env "type" with
          | None -> Error "response missing string field \"type\""
          | Some "pong" -> Ok (id, `Terminal Pong)
          | Some "stopping" -> Ok (id, `Terminal Stopping)
          | Some "error" -> (
              match str env "error" with
              | Some e -> Ok (id, `Terminal (Failed e))
              | None -> Error "error response missing \"error\"")
          | Some "result" -> (
              let* served = field_str env "served" in
              match Measurement.of_slots ms with
              | Ok m -> Ok (id, `Terminal (Result { served; m }))
              | Error e -> Error ("result: " ^ e))
          | Some "point" -> (
              let* served = field_str env "served" in
              let* index = field_int env "index" ~default:(-1) in
              if index < 0 then Error "point response missing \"index\""
              else
                match Measurement.of_slots ms with
                | Ok m -> Ok (id, `Interim (Sweep_point { index; served; m }))
                | Error e -> Error ("point: " ^ e))
          | Some "done" ->
              let* points = field_int env "points" ~default:(-1) in
              let* hits = field_int env "hits" ~default:0 in
              let* sims = field_int env "sims" ~default:0 in
              let* deduped = field_int env "deduped" ~default:0 in
              if points < 0 then Error "done response missing \"points\""
              else Ok (id, `Terminal (Sweep_done { points; hits; sims; deduped }))
          | Some "stats" ->
              let* st_hits = field_int env "hits" ~default:0 in
              let* st_misses = field_int env "misses" ~default:0 in
              let* st_deduped = field_int env "deduped" ~default:0 in
              let* st_simulated = field_int env "simulated" ~default:0 in
              let* st_inflight = field_int env "inflight" ~default:0 in
              let* st_queue_depth = field_int env "queue_depth" ~default:0 in
              let* st_store_size = field_int env "store_size" ~default:0 in
              let* st_requests = field_int env "requests" ~default:0 in
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
          | Some ty -> Error (Printf.sprintf "unknown response type %S" ty)))
