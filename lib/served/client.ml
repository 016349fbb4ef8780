(* A synchronous client for the salam_served daemon.

   One request at a time per client value: send a line, then read
   response lines until the terminal one for our id arrives, keeping a
   sweep's point lines as they stream in. Not thread-safe — give each
   thread its own client (connections are cheap; the daemon
   multiplexes). *)

module P = Protocol
module Point = Salam_dse.Point
module Measurement = Salam_dse.Measurement

type t = {
  fd : Unix.file_descr;
  r : P.reader;
  w : P.writer;
  mutable next_id : int64;
  mutable closed : bool;
}

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail "cannot connect to %s: %s" path (Unix.error_message e));
  {
    fd;
    r = P.reader fd;
    w = P.writer fd;
    next_id = 1L;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection path f =
  let t = connect path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* send one request, collect every line up to (and including) the
   terminal one; interim points accumulate in order of arrival. Each
   reply is decoded where it lies in the reader's buffer. *)
let roundtrip t req =
  if t.closed then fail "client is closed";
  let id = t.next_id in
  t.next_id <- Int64.add t.next_id 1L;
  (match P.send_request t.w ~id req with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) -> fail "cannot send request: %s" (Unix.error_message e));
  let points = ref [] in
  let rec await () =
    match P.next t.r with
    | `Eof -> fail "server hung up mid-request"
    | `Too_long -> fail "reply line longer than %d bytes" P.max_line
    | `Line -> (
        let src = P.line_src t.r and off = P.line_off t.r and len = P.line_len t.r in
        match P.decode_response_sub src off len with
        | Error e -> fail "undecodable response: %s (line: %s)" e (String.sub src off len)
        (* a line the daemon could not read is answered with id 0 *)
        | Ok (0L, `Terminal (P.Failed e)) -> fail "request refused: %s" e
        | Ok (rid, _) when rid <> id ->
            fail "response for request %Ld while awaiting %Ld" rid id
        | Ok (_, `Interim resp) ->
            (match resp with
            | P.Sweep_point _ -> points := resp :: !points
            | _ -> fail "unexpected interim response");
            await ()
        | Ok (_, `Terminal resp) -> resp)
  in
  let terminal = await () in
  (terminal, List.rev !points)

let ping t =
  match roundtrip t P.Ping with
  | P.Pong, _ -> ()
  | P.Failed e, _ -> fail "ping: %s" e
  | _ -> fail "ping: unexpected terminal response"

let stats t =
  match roundtrip t P.Stats with
  | P.Stats_reply s, _ -> s
  | P.Failed e, _ -> fail "stats: %s" e
  | _ -> fail "stats: unexpected terminal response"

let shutdown t =
  match roundtrip t P.Shutdown with
  | P.Stopping, _ -> ()
  | P.Failed e, _ -> fail "shutdown: %s" e
  | _ -> fail "shutdown: unexpected terminal response"

let sim t ?(spec = P.default_spec) point =
  match roundtrip t (P.Sim (spec, point)) with
  | P.Result { served; m }, _ -> (served, m)
  | P.Failed e, _ -> fail "sim: %s" e
  | _ -> fail "sim: unexpected terminal response"

(* one sweep request: its answers in request order *)
let sweep_batch t spec points =
  let n = List.length points in
  match roundtrip t (P.Sweep (spec, points)) with
  | P.Failed e, _ -> fail "sweep: %s" e
  | P.Sweep_done { points = np; hits; sims; deduped }, interim ->
      let slots = Array.make n None in
      List.iter
        (function
          | P.Sweep_point { index; served; m } ->
              if index < 0 || index >= n then
                fail "sweep: point index %d out of range (%d points)" index n;
              if slots.(index) <> None then fail "sweep: duplicate point index %d" index;
              slots.(index) <- Some (served, m)
          | _ -> ())
        interim;
      let answers =
        Array.to_list
          (Array.mapi
             (fun i -> function
               | Some a -> a
               | None -> fail "sweep: no answer for point %d" i)
             slots)
      in
      ((np, hits, sims, deduped), answers)
  | _ -> fail "sweep: unexpected terminal response"

(* a sweep longer than the daemon reads in one line goes as several
   requests, one after another; their counters add up *)
let sweep t ?(spec = P.default_spec) points =
  let totals, answers =
    List.fold_left
      (fun ((np, hits, sims, deduped), answers) batch ->
        let (np', hits', sims', deduped'), a = sweep_batch t spec batch in
        ((np + np', hits + hits', sims + sims', deduped + deduped'), List.rev_append a answers))
      ((0, 0, 0, 0), [])
      (P.sweep_batches ~max_line:P.max_line spec points)
  in
  let np, hits, sims, deduped = totals in
  (P.Sweep_done { points = np; hits; sims; deduped }, List.rev answers)
