(* The wire protocol: newline-delimited flat JSON objects, one message
   per line, both directions — the same hand-rolled codec the result
   store speaks ({!Salam_dse.Jsonl}), so the daemon needs no JSON
   library and every float on the wire round-trips bit-exactly.

   A measurement reply is the store's line with an envelope spliced in
   front ([splice]): the daemon never encodes a measurement it already
   holds as bytes, and a client decodes the reply in one pass that fills
   the envelope and the measurement together.

   Requests carry a client-chosen [id]; every line the server sends
   back for that request echoes it, so a client can pipeline. Interim
   lines ([type=progress], [type=point]) precede exactly one terminal
   line per request ([type=result|done|pong|stats|stopping|error]).
   Malformed input is answered loudly with [type=error] and never
   crashes the daemon. *)

module Jsonl = Salam_dse.Jsonl
module Point = Salam_dse.Point
module Measurement = Salam_dse.Measurement
module Trace = Salam_obs.Trace

type spec = {
  workload : string;  (** "gemm" or a suite workload name *)
  gemm_n : int;
  invocations : int;
  fast_forward : int option;
  progress : bool;  (** stream per-point dse.progress events *)
}

let default_spec =
  { workload = "gemm"; gemm_n = 16; invocations = 1; fast_forward = None; progress = false }

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

type progress = {
  pr_tick : int64;
  pr_comp : string;
  pr_detail : string;
  pr_args : (string * Jsonl.value) list;
}

(* --- encoding ----------------------------------------------------------- *)

let i n = Jsonl.Int (Int64.of_int n)

let spec_fields spec =
  [
    ("workload", Jsonl.Str spec.workload);
    ("gemm_n", i spec.gemm_n);
    ("invocations", i spec.invocations);
  ]
  @ (match spec.fast_forward with Some k -> [ ("fast_forward", i k) ] | None -> [])
  @ if spec.progress then [ ("progress", Jsonl.Bool true) ] else []

let encode_request ~id req =
  let base op = [ ("id", Jsonl.Int id); ("op", Jsonl.Str op) ] in
  Jsonl.encode
    (match req with
    | Ping -> base "ping"
    | Stats -> base "stats"
    | Shutdown -> base "shutdown"
    | Sim (spec, p) ->
        base "sim" @ spec_fields spec @ [ ("point", Jsonl.Str (Point.to_compact p)) ]
    | Sweep (spec, ps) ->
        base "sweep" @ spec_fields spec
        @ [ ("points", Jsonl.Str (String.concat ";" (List.map Point.to_compact ps))) ])

(* The envelope, then the measurement line's own members: its bytes
   after the opening '{'. *)
let splice ~id ?index ~served line =
  if String.length line < 2 || line.[0] <> '{' || line.[1] = '}' then
    invalid_arg "Protocol.splice: not a measurement line";
  let b = Buffer.create (String.length line + 64) in
  Jsonl.add_member b ~first:true "id" (Jsonl.Int id);
  (match index with
  | None -> Jsonl.add_member b ~first:false "type" (Jsonl.Str "result")
  | Some index ->
      Jsonl.add_member b ~first:false "type" (Jsonl.Str "point");
      Jsonl.add_member b ~first:false "index" (i index));
  Jsonl.add_member b ~first:false "served" (Jsonl.Str served);
  Buffer.add_char b ',';
  Buffer.add_substring b line 1 (String.length line - 1);
  Buffer.contents b

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

(* the bridge: a dse.progress trace event, rendered onto the wire with
   the request id it belongs to *)
let trace_value_to_jsonl = function
  | Trace.I v -> Jsonl.Int v
  | Trace.F v -> Jsonl.Float v
  | Trace.S v -> Jsonl.Str v

let progress_line ~id (e : Trace.event) =
  Jsonl.encode
    ([
       ("id", Jsonl.Int id);
       ("type", Jsonl.Str "progress");
       ("tick", Jsonl.Int e.Trace.tick);
       ("comp", Jsonl.Str e.Trace.comp);
       ("cat", Jsonl.Str (Trace.category_to_string e.Trace.cat));
       ("detail", Jsonl.Str e.Trace.detail);
     ]
    @ List.map (fun (k, v) -> (k, trace_value_to_jsonl v)) e.Trace.args)

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field_str fields k =
  match Jsonl.get_str fields k with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let int_value k = function
  | Jsonl.Int v -> (
      match Jsonl.to_int v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "field %S is outside the int range" k))
  | _ -> Error (Printf.sprintf "field %S must be an integer" k)

let field_int fields k ~default =
  match List.assoc_opt k fields with None -> Ok default | Some v -> int_value k v

let req_id fields =
  (* best-effort: error replies echo whatever id was parseable *)
  match Jsonl.get_int fields "id" with Some id -> id | None -> 0L

let decode_spec fields =
  let* workload = field_str fields "workload" in
  let* gemm_n = field_int fields "gemm_n" ~default:default_spec.gemm_n in
  let* invocations = field_int fields "invocations" ~default:1 in
  let* fast_forward =
    match List.assoc_opt "fast_forward" fields with
    | None -> Ok None
    | Some v -> Result.map Option.some (int_value "fast_forward" v)
  in
  let progress = Jsonl.get_bool fields "progress" = Some true in
  if invocations < 1 then Error "invocations must be at least 1"
  else if gemm_n < 1 then Error "gemm_n must be at least 1"
  else
    match fast_forward with
    | Some k when k < 0 || k >= invocations ->
        Error
          (Printf.sprintf "fast_forward must satisfy 0 <= %d < invocations (%d)" k invocations)
    | _ -> Ok { workload; gemm_n; invocations; fast_forward; progress }

let decode_points s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match Point.of_compact tok with
        | Ok p -> go (p :: acc) rest
        | Error e -> Error e)
  in
  match String.split_on_char ';' s with
  | [ "" ] -> Error "empty point list"
  | toks -> go [] toks

let decode_request line =
  match Jsonl.decode line with
  | Error e -> Error (0L, Printf.sprintf "bad request line: %s" e)
  | Ok fields -> (
      let id = req_id fields in
      let fail e = Error (id, e) in
      match Jsonl.get_int fields "id" with
      | None -> fail "missing integer field \"id\""
      | Some id -> (
          match Jsonl.get_str fields "op" with
          | None -> fail "missing string field \"op\""
          | Some "ping" -> Ok (id, Ping)
          | Some "stats" -> Ok (id, Stats)
          | Some "shutdown" -> Ok (id, Shutdown)
          | Some "sim" -> (
              match
                let* spec = decode_spec fields in
                let* compact = field_str fields "point" in
                let* p = Point.of_compact compact in
                Ok (Sim (spec, p))
              with
              | Ok req -> Ok (id, req)
              | Error e -> fail ("sim: " ^ e))
          | Some "sweep" -> (
              match
                let* spec = decode_spec fields in
                let* s = field_str fields "points" in
                let* ps = decode_points s in
                Ok (Sweep (spec, ps))
              with
              | Ok req -> Ok (id, req)
              | Error e -> fail ("sweep: " ^ e))
          | Some op -> fail (Printf.sprintf "unknown op %S (ping|sim|sweep|stats|shutdown)" op)))

let envelope_keys = [ "id"; "type"; "index"; "served"; "tick"; "comp"; "cat"; "detail" ]

(* One pass over the line collects its members and fills measurement
   slots alongside; a result or point reply then builds its measurement
   from the slots. Envelope keys are not measurement fields, so they
   never land in a slot. *)
let decode_response line =
  let slots = Measurement.slots () in
  let members = ref [] in
  match
    Jsonl.iter_fields line (fun k v ->
        Measurement.fill slots k v;
        members := (k, v) :: !members)
  with
  | Error e -> Error (Printf.sprintf "bad response line: %s" e)
  | Ok () -> (
      let fields = List.rev !members in
      match Jsonl.get_int fields "id" with
      | None -> Error "response missing integer field \"id\""
      | Some id -> (
          match Jsonl.get_str fields "type" with
          | None -> Error "response missing string field \"type\""
          | Some "pong" -> Ok (id, `Terminal Pong)
          | Some "stopping" -> Ok (id, `Terminal Stopping)
          | Some "error" -> (
              match Jsonl.get_str fields "error" with
              | Some e -> Ok (id, `Terminal (Failed e))
              | None -> Error "error response missing \"error\"")
          | Some "result" -> (
              let* served = field_str fields "served" in
              match Measurement.of_slots slots with
              | Ok m -> Ok (id, `Terminal (Result { served; m }))
              | Error e -> Error ("result: " ^ e))
          | Some "point" -> (
              let* served = field_str fields "served" in
              let* index = field_int fields "index" ~default:(-1) in
              if index < 0 then Error "point response missing \"index\""
              else
                match Measurement.of_slots slots with
                | Ok m -> Ok (id, `Interim (Sweep_point { index; served; m }))
                | Error e -> Error ("point: " ^ e))
          | Some "done" ->
              let* points = field_int fields "points" ~default:(-1) in
              let* hits = field_int fields "hits" ~default:0 in
              let* sims = field_int fields "sims" ~default:0 in
              let* deduped = field_int fields "deduped" ~default:0 in
              if points < 0 then Error "done response missing \"points\""
              else Ok (id, `Terminal (Sweep_done { points; hits; sims; deduped }))
          | Some "stats" ->
              let* st_hits = field_int fields "hits" ~default:0 in
              let* st_misses = field_int fields "misses" ~default:0 in
              let* st_deduped = field_int fields "deduped" ~default:0 in
              let* st_simulated = field_int fields "simulated" ~default:0 in
              let* st_inflight = field_int fields "inflight" ~default:0 in
              let* st_queue_depth = field_int fields "queue_depth" ~default:0 in
              let* st_store_size = field_int fields "store_size" ~default:0 in
              let* st_requests = field_int fields "requests" ~default:0 in
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
          | Some "progress" ->
              let* tick =
                match Jsonl.get_int fields "tick" with
                | Some t -> Ok t
                | None -> Error "progress missing \"tick\""
              in
              let* pr_comp = field_str fields "comp" in
              let* pr_detail = field_str fields "detail" in
              let pr_args =
                List.filter (fun (k, _) -> not (List.mem k envelope_keys)) fields
              in
              Ok (id, `Interim_progress { pr_tick = tick; pr_comp; pr_detail; pr_args })
          | Some ty -> Error (Printf.sprintf "unknown response type %S" ty)))
