(* Tests for the salam_served daemon: protocol round-trips, malformed
   input, a real server on a temp socket, persistence across restarts,
   and the in-flight dedup guarantee under concurrent clients. *)

module P = Salam_served.Protocol
module Server = Salam_served.Server
module Client = Salam_served.Client
module Point = Salam_dse.Point
module M = Salam_dse.Measurement
module E = Salam_dse.Explore

let synthetic = Test_store_shard.synthetic

(* --- protocol round-trips ----------------------------------------- *)

let spec =
  { P.workload = "gemm"; gemm_n = 8; invocations = 2; fast_forward = Some 1 }

let point ports =
  Point.canonical { Point.default with Point.read_ports = ports; write_ports = 1; banks = 2 }

let roundtrip_request req =
  match P.decode_request (P.encode_request ~id:42L req) with
  | Ok (id, got) ->
      Alcotest.(check int64) "id echoed" 42L id;
      got
  | Error (_, e) -> Alcotest.fail ("request did not round-trip: " ^ e)

let test_request_round_trips () =
  (match roundtrip_request P.Ping with P.Ping -> () | _ -> Alcotest.fail "ping");
  (match roundtrip_request P.Stats with P.Stats -> () | _ -> Alcotest.fail "stats");
  (match roundtrip_request P.Shutdown with P.Shutdown -> () | _ -> Alcotest.fail "shutdown");
  (match roundtrip_request (P.Sim (spec, point 4)) with
  | P.Sim (spec', p) ->
      Alcotest.(check bool) "spec survives" true (spec' = spec);
      Alcotest.(check int) "point survives" 0 (Point.compare p (point 4))
  | _ -> Alcotest.fail "sim");
  match roundtrip_request (P.Sweep (spec, [ point 1; point 2; point 16 ])) with
  | P.Sweep (spec', ps) ->
      Alcotest.(check bool) "spec survives" true (spec' = spec);
      Alcotest.(check (list int))
        "points survive in order" [ 0; 0; 0 ]
        (List.map2 Point.compare ps [ point 1; point 2; point 16 ])
  | _ -> Alcotest.fail "sweep"

let terminal resp =
  match P.decode_response (P.encode_response ~id:7L resp) with
  | Ok (7L, `Terminal got) -> got
  | Ok _ -> Alcotest.fail "wrong id or arity"
  | Error e -> Alcotest.fail ("response did not round-trip: " ^ e)

let test_response_round_trips () =
  (match terminal P.Pong with P.Pong -> () | _ -> Alcotest.fail "pong");
  (match terminal P.Stopping with P.Stopping -> () | _ -> Alcotest.fail "stopping");
  (match terminal (P.Failed "boom") with
  | P.Failed e -> Alcotest.(check string) "error text" "boom" e
  | _ -> Alcotest.fail "error");
  let m = synthetic 5 in
  (match terminal (P.Result { served = "hit"; m }) with
  | P.Result { served; m = got } ->
      Alcotest.(check string) "served tag" "hit" served;
      Alcotest.(check string) "measurement bit-identical" (M.to_line m) (M.to_line got)
  | _ -> Alcotest.fail "result");
  (match terminal (P.Sweep_done { points = 3; hits = 1; sims = 1; deduped = 1 }) with
  | P.Sweep_done { points; hits; sims; deduped } ->
      Alcotest.(check (list int)) "counters" [ 3; 1; 1; 1 ] [ points; hits; sims; deduped ]
  | _ -> Alcotest.fail "done");
  let st =
    {
      P.st_hits = 1;
      st_misses = 2;
      st_deduped = 3;
      st_simulated = 4;
      st_inflight = 5;
      st_queue_depth = 6;
      st_store_size = 8;
      st_requests = 9;
    }
  in
  (match terminal (P.Stats_reply st) with
  | P.Stats_reply got -> Alcotest.(check bool) "stats survive" true (got = st)
  | _ -> Alcotest.fail "stats");
  (* interim lines *)
  let m2 = synthetic 6 in
  match P.decode_response (P.encode_response ~id:7L (P.Sweep_point { index = 2; served = "dedup"; m = m2 })) with
  | Ok (7L, `Interim (P.Sweep_point { index; served; m = got })) ->
      Alcotest.(check int) "index" 2 index;
      Alcotest.(check string) "served" "dedup" served;
      Alcotest.(check string) "measurement" (M.to_line m2) (M.to_line got)
  | _ -> Alcotest.fail "sweep point"

(* A daemon from when stores were sharded also reported its shard
   count: a reply this daemon does not write, refused where the member
   it does not know stands. *)
let test_old_daemon_stats_refused () =
  let head =
    "{\"id\":7,\"type\":\"stats\",\"hits\":1,\"misses\":2,\"deduped\":3,\"simulated\":4,\
     \"inflight\":5,\"queue_depth\":6"
  in
  let line = head ^ ",\"shards\":8,\"store_size\":9,\"requests\":10}" in
  match P.decode_response line with
  | Ok _ -> Alcotest.fail "an older daemon's stats reply decoded"
  | Error e ->
      Alcotest.(check string) "the member named where it stands"
        (Printf.sprintf "missing field \"store_size\" at offset %d" (String.length head))
        e

let test_malformed_requests_rejected () =
  let expect_error ?id ?names line =
    match P.decode_request line with
    | Ok _ -> Alcotest.fail ("accepted malformed request: " ^ line)
    | Error (got_id, e) ->
        Alcotest.(check bool) ("loud error for " ^ line) true (String.length e > 0);
        Option.iter
          (fun k -> Alcotest.(check bool) (e ^ " names " ^ k) true (Test_store_shard.contains e k))
          names;
        Option.iter (fun id -> Alcotest.(check int64) "id recovered" id got_id) id
  in
  expect_error "not json at all";
  expect_error "{\"op\":\"ping\"}" (* missing id *);
  expect_error ~id:3L "{\"id\":3,\"nop\":\"ping\"}";
  expect_error ~id:3L "{\"id\":3,\"op\":\"warp\"}";
  let members = "\"workload\":\"gemm\",\"gemm_n\":8,\"invocations\":1" in
  expect_error ~id:4L ~names:"point" (Printf.sprintf "{\"id\":4,\"op\":\"sim\",%s}" members);
  expect_error ~id:4L ~names:"banks"
    (Printf.sprintf "{\"id\":4,\"op\":\"sim\",%s,\"point\":\"banks=two\"}" members);
  expect_error ~id:5L ~names:"points"
    (Printf.sprintf "{\"id\":5,\"op\":\"sweep\",%s,\"points\":\"\"}" members);
  expect_error ~id:6L ~names:"invocations"
    (Printf.sprintf
       "{\"id\":6,\"op\":\"sim\",\"workload\":\"gemm\",\"gemm_n\":8,\"invocations\":0,\"point\":%S}"
       (Point.to_compact (point 2)));
  expect_error ~id:7L
    (P.encode_request ~id:7L (P.Sim ({ spec with P.fast_forward = Some 9 }, point 2)))

(* A compact point names exactly one design: an unknown key, a key
   given twice, a value not spelled as [to_compact] writes it, or a knob
   the memory kind ignores set to anything but 0 is refused, naming the
   key, both by the codec and over the wire. *)
let test_ambiguous_points_rejected () =
  let canonical = Point.to_compact (point 2) in
  let cache = Point.to_compact (Point.canonical { Point.default with Point.memory = Point.Cache }) in
  (* [text] with [key]'s value replaced by [value] *)
  let replace text key value =
    String.concat ","
      (List.map
         (fun kv -> if String.starts_with ~prefix:(key ^ "=") kv then key ^ "=" ^ value else kv)
         (String.split_on_char ',' text))
  in
  List.iter
    (fun (text, key) ->
      (match Point.of_compact text with
      | Ok p -> Alcotest.failf "%s accepted as %s" text (Point.to_compact p)
      | Error e -> Alcotest.(check bool) (e ^ " names " ^ key) true (Test_store_shard.contains e key));
      match
        P.decode_request
          (Printf.sprintf
             "{\"id\":9,\"op\":\"sim\",\"workload\":\"gemm\",\"gemm_n\":16,\"invocations\":1,\"point\":%S}"
             text)
      with
      | Ok _ -> Alcotest.failf "request for %s accepted" text
      | Error (id, e) ->
          Alcotest.(check int64) "id recovered" 9L id;
          Alcotest.(check bool) (e ^ " names " ^ key) true (Test_store_shard.contains e key))
    [
      (canonical ^ ",bogus=7", "bogus");
      ("read_ports=9," ^ canonical, "read_ports");
      (replace canonical "read_ports" "02", "read_ports");
      (replace canonical "clock_mhz" "500", "clock_mhz");
      (replace canonical "clock_mhz" "0X1.F4P+8", "clock_mhz");
      (replace cache "read_ports" "2", "read_ports");
    ]

let test_out_of_range_request_integers () =
  let names line field =
    let want = Printf.sprintf "field %S is outside the int range" field in
    match P.decode_request line with
    | Ok _ -> Alcotest.fail ("accepted " ^ line)
    | Error (id, e) ->
        Alcotest.(check int64) "id recovered" 4L id;
        Alcotest.(check bool) (e ^ " names " ^ field) true (Test_store_shard.contains e want)
  in
  let sim ?(gemm_n = "8") ?(invocations = "2") ?(fast_forward = "1") () =
    Printf.sprintf
      "{\"id\":4,\"op\":\"sim\",\"workload\":\"gemm\",\"gemm_n\":%s,\"invocations\":%s,\"fast_forward\":%s,\"point\":%S}"
      gemm_n invocations fast_forward (Point.to_compact (point 2))
  in
  names (sim ~gemm_n:"4611686018427387904" ()) "gemm_n";
  names (sim ~invocations:"9223372036854775807" ()) "invocations";
  names (sim ~fast_forward:"-4611686018427387905" ()) "fast_forward";
  match
    P.decode_response
      "{\"id\":7,\"type\":\"done\",\"points\":9223372036854775807,\"hits\":0,\"sims\":0,\"deduped\":0}"
  with
  | Ok _ -> Alcotest.fail "a done reply with an out-of-range count decoded"
  | Error e ->
      Alcotest.(check string) "reply field named" "field \"points\" is outside the int range" e

(* --- a real daemon on a temp socket ------------------------------- *)

let fresh_socket () =
  let path = Filename.temp_file "salam_served_test" ".sock" in
  Sys.remove path;
  path

let tiny_spec = { P.default_spec with P.workload = "gemm"; gemm_n = 8 }

let with_server ?store_dir ?(workers = 2) f =
  let socket = fresh_socket () in
  let cfg = { Server.socket_path = socket; store_dir; workers } in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket t)

let test_daemon_smoke () =
  with_server (fun socket server ->
      Client.with_connection socket (fun c ->
          Client.ping c;
          let served, m = Client.sim c ~spec:tiny_spec (point 2) in
          Alcotest.(check string) "cold point simulated" "sim" served;
          Alcotest.(check bool) "correct result" true m.M.correct;
          let served2, m2 = Client.sim c ~spec:tiny_spec (point 2) in
          Alcotest.(check string) "warm point from store" "hit" served2;
          Alcotest.(check string) "bit-identical" (M.to_line m) (M.to_line m2);
          (* warm hits are the daemon's fast path: measure and report *)
          let reps = 100 in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to reps do
            ignore (Client.sim c ~spec:tiny_spec (point 2))
          done;
          let us = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6 in
          Printf.printf "[served] warm-hit round-trip: %.0f us\n%!" us;
          Alcotest.(check bool) "warm hit under 50ms" true (us < 5e4);
          let st = Client.stats c in
          Alcotest.(check int) "one simulation" 1 st.P.st_simulated;
          Alcotest.(check int) "one miss" 1 st.P.st_misses;
          Alcotest.(check int) "the rest were hits" (1 + reps) st.P.st_hits;
          Alcotest.(check int) "every request counted, this one included" (4 + reps)
            st.P.st_requests;
          Alcotest.(check int) "nothing in flight" 0 st.P.st_inflight);
      ignore server)

let test_garbage_line_keeps_connection_usable () =
  with_server (fun socket _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          output_string oc "this is not a request\n";
          flush oc;
          (match P.decode_response (input_line ic) with
          | Ok (_, `Terminal (P.Failed e)) ->
              Alcotest.(check bool) "loud error" true (String.length e > 0)
          | _ -> Alcotest.fail "garbage must yield a type=error reply");
          (* the connection survives and still speaks the protocol *)
          output_string oc "{\"id\":7,\"op\":\"ping\"}\n";
          flush oc;
          match P.decode_response (input_line ic) with
          | Ok (7L, `Terminal P.Pong) -> ()
          | _ -> Alcotest.fail "connection unusable after a garbage line"))

let test_shutdown_request_stops_daemon () =
  let socket = fresh_socket () in
  let cfg = { (Server.default_config ()) with Server.socket_path = socket; workers = 1 } in
  let t = Server.start cfg in
  Client.with_connection socket (fun c -> Client.shutdown c);
  Server.wait t;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  match Client.connect socket with
  | exception Client.Protocol_error _ -> ()
  | c ->
      Client.close c;
      Alcotest.fail "daemon still accepting after shutdown"

let test_persistence_across_restart () =
  let dir = Filename.temp_file "salam_served_store" "" in
  Sys.remove dir;
  let first =
    with_server ~store_dir:dir (fun socket _ ->
        Client.with_connection socket (fun c ->
            let served, m = Client.sim c ~spec:tiny_spec (point 4) in
            Alcotest.(check string) "cold on first run" "sim" served;
            M.to_line m))
  in
  with_server ~store_dir:dir (fun socket _ ->
      Client.with_connection socket (fun c ->
          let served, m = Client.sim c ~spec:tiny_spec (point 4) in
          Alcotest.(check string) "warm after restart" "hit" served;
          Alcotest.(check string) "bit-identical across restart" first (M.to_line m)))

let test_fast_forward_snapshots_isolated_per_roadmark () =
  (* The daemon is long-lived and every request carries its own
     fast-forward roadmark, so the warm-up snapshot cache must key on
     the roadmark: a snapshot pinned by the first request must not be
     reused for a later request at a different roadmark. Each answer is
     checked bit-for-bit against a local run at that roadmark. *)
  let target = E.gemm_target ~n:tiny_spec.P.gemm_n () in
  let p = point 2 in
  let invocations = 3 in
  let local roadmark =
    let workload = target.E.workload_id p in
    let id = E.identity ~workload ~invocations ~fast_forward:(Some roadmark) in
    let config = Point.to_config p in
    let w = target.E.build p in
    let from = Salam.warm_up ~config ~invocations:roadmark w in
    let r = Salam.simulate ~config ~invocations ~from w in
    M.to_line (M.of_result ~workload:id ~point:p r)
  in
  with_server (fun socket _ ->
      Client.with_connection socket (fun c ->
          (* the first request pins the snapshot cache; the second, at a
             different roadmark, must get its own snapshot *)
          List.iter
            (fun roadmark ->
              let spec =
                { tiny_spec with P.invocations; fast_forward = Some roadmark }
              in
              let served, m = Client.sim c ~spec p in
              Alcotest.(check string)
                (Printf.sprintf "ff=%d is its own cold point" roadmark)
                "sim" served;
              Alcotest.(check string)
                (Printf.sprintf "ff=%d bit-identical to a local run" roadmark)
                (local roadmark) (M.to_line m))
            [ 1; 2 ]))

(* --- hits answered from the stored bytes ---------------------------- *)

(* a measurement stored under the fingerprint the daemon computes for
   [p] requested with [tiny_spec] *)
let stored_for p =
  let target = E.gemm_target ~n:tiny_spec.P.gemm_n () in
  let p = Point.canonical p in
  let workload = target.E.workload_id p in
  let id =
    E.identity ~workload ~invocations:tiny_spec.P.invocations
      ~fast_forward:tiny_spec.P.fast_forward
  in
  { (synthetic 9) with M.fp = Point.fingerprint ~workload:id p; workload = id; point = p }

(* send each request line in turn on one raw connection and return, for
   each, its reply lines up to the terminal one, as the daemon wrote
   them *)
let raw_exchange socket lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      List.map
        (fun request ->
          output_string oc (request ^ "\n");
          flush oc;
          let rec read acc =
            let line = input_line ic in
            match P.decode_response line with
            | Ok (_, `Terminal _) -> List.rev (line :: acc)
            | Ok _ -> read (line :: acc)
            | Error e -> Alcotest.failf "undecodable reply %s: %s" line e
          in
          read [])
        lines)

let raw_replies socket ~id req = List.concat (raw_exchange socket [ P.encode_request ~id req ])

(* a store directory whose one file holds [contents] *)
let with_store contents f =
  Test_store_shard.with_temp_dir (fun dir ->
      Test_store_shard.write_store dir contents;
      f dir)

let test_hit_reply_is_envelope_and_stored_bytes () =
  let m = stored_for (point 2) in
  let line = M.to_line m in
  with_store (line ^ "\n") (fun store ->
      with_server ~store_dir:store (fun socket server ->
          Alcotest.(check (list string)) "result reply"
            [ "{\"id\":5,\"type\":\"result\",\"served\":\"hit\"," ^ String.sub line 1 (String.length line - 1) ]
            (raw_replies socket ~id:5L (P.Sim (tiny_spec, point 2)));
          Alcotest.(check (list string)) "sweep replies"
            [
              "{\"id\":6,\"type\":\"point\",\"index\":0,\"served\":\"hit\","
              ^ String.sub line 1 (String.length line - 1);
              P.encode_response ~id:6L (P.Sweep_done { points = 1; hits = 1; sims = 0; deduped = 0 });
            ]
            (raw_replies socket ~id:6L (P.Sweep (tiny_spec, [ point 2 ])));
          Alcotest.(check int) "nothing simulated" 0 (Server.stats_snapshot server).P.st_simulated))

(* --- the per-connection memo and the write path ---------------------- *)

(* [n] distinct GEMM points, one clock apart *)
let clock_points n =
  List.init n (fun k -> Point.canonical { (point 2) with Point.clock_mhz = float_of_int (200 + k) })

let test_memo_repeat_answers_like_fresh_daemon () =
  let ps = [ point 2; point 4 ] in
  with_store
    (String.concat "" (List.map (fun p -> M.to_line (stored_for p) ^ "\n") ps))
    (fun store ->
      let sim = P.encode_request ~id:5L (P.Sim (tiny_spec, point 2)) in
      let sweep = P.encode_request ~id:6L (P.Sweep (tiny_spec, ps)) in
      let repeated, hits =
        with_server ~store_dir:store (fun socket server ->
            let r = raw_exchange socket [ sim; sweep; sim; sweep ] in
            (r, (Server.stats_snapshot server).P.st_hits))
      in
      let fresh = with_server ~store_dir:store (fun socket _ -> raw_exchange socket [ sim; sweep ]) in
      match (repeated, fresh) with
      | [ sim1; sweep1; sim2; sweep2 ], [ sim0; sweep0 ] ->
          Alcotest.(check (list string)) "repeated sim = a fresh daemon's" sim0 sim2;
          Alcotest.(check (list string)) "repeated sweep = a fresh daemon's" sweep0 sweep2;
          Alcotest.(check (list string)) "first sim = a fresh daemon's" sim0 sim1;
          Alcotest.(check (list string)) "first sweep = a fresh daemon's" sweep0 sweep1;
          Alcotest.(check int) "every point a hit" 6 hits
      | _ -> Alcotest.fail "not one reply per request")

let resolve memo line = Server.resolve_line memo line 0 (String.length line)
let recall memo line = Server.recall memo line 0 (String.length line)

let sim_line ?(id = 3L) ?(spec = tiny_spec) p = P.encode_request ~id (P.Sim (spec, p))

let resolved_fp memo line =
  match resolve memo line with
  | Ok (_, Server.Sim r) -> r.Server.fp
  | Ok (_, Server.Refused e) -> Alcotest.failf "%s refused: %s" line e
  | Ok _ | Error _ -> Alcotest.failf "%s not resolved as a sim" line

let test_memo_keys () =
  let memo = Server.memo () in
  let a = sim_line (point 2) in
  Alcotest.(check bool) "nothing recalled before" true (recall memo a = None);
  let fp = resolved_fp memo a in
  Alcotest.(check bool)
    "a repeat under another id recalled with its fingerprint" true
    (recall memo (sim_line ~id:77L (point 2))
    = Some { Server.r_id = 77L; fp });
  (* one byte changed in the spec or in the point misses, and resolves
     to its own fingerprint *)
  List.iter
    (fun (what, sub, by) ->
      let b = Test_figures.replace ~sub ~by a in
      Alcotest.(check bool) (what ^ ": one byte apart") true (String.length a = String.length b);
      Alcotest.(check bool) (what ^ ": missed") true (recall memo b = None);
      Alcotest.(check bool) (what ^ ": another fingerprint") true (resolved_fp memo b <> fp))
    [ ("spec", "\"gemm_n\":8", "\"gemm_n\":9"); ("point", "read_ports=2", "read_ports=3") ];
  (* a sweep is never recalled, nor does it make a sim recalled: each
     takes the full path *)
  let ps = [ point 2; point 4 ] in
  let sweep = P.encode_request ~id:8L (P.Sweep (tiny_spec, ps)) in
  let size = Server.memo_size memo in
  (match resolve memo sweep with
  | Ok (8L, Server.Sweep [ _; _ ]) -> ()
  | _ -> Alcotest.fail "sweep not resolved");
  Alcotest.(check int) "a sweep keeps nothing" size (Server.memo_size memo);
  Alcotest.(check bool) "sweep not recalled" true (recall memo sweep = None);
  Alcotest.(check bool)
    "a sim is not recalled from a sweep's point" true
    (recall memo (sim_line (point 4)) = None)

(* A point the check refuses is not kept: the same line is refused
   again, by the full path, every time. *)
let test_memo_keeps_no_refusal () =
  let memo = Server.memo () in
  let bad = sim_line { (point 2) with Point.fu_limit = -1 } in
  for _ = 1 to 2 do
    (match resolve memo bad with
    | Ok (3L, Server.Refused e) ->
        Alcotest.(check string) "refused" "fu_limit=-1: must be at least 0 (0 = unconstrained)" e
    | _ -> Alcotest.fail "a refused point resolved");
    Alcotest.(check bool) "not recalled" true (recall memo bad = None);
    Alcotest.(check int) "nothing kept" 0 (Server.memo_size memo)
  done;
  with_server (fun socket server ->
      let replies = raw_exchange socket [ bad; bad ] in
      Alcotest.(check (list (list string)))
        "both refused alike"
        [ [ P.encode_response ~id:3L (P.Failed "fu_limit=-1: must be at least 0 (0 = unconstrained)") ] ]
        (List.sort_uniq compare replies);
      Alcotest.(check int) "no store lookup" 0 (Server.stats_snapshot server).P.st_hits)

let test_memo_bounded () =
  let memo = Server.memo () in
  let ps = clock_points (Salam_served.Memo.capacity + 1) in
  List.iter (fun p -> ignore (resolved_fp memo (sim_line p))) ps;
  Alcotest.(check bool)
    (Printf.sprintf "%d entries after %d points" (Server.memo_size memo) (List.length ps))
    true
    (Server.memo_size memo <= Salam_served.Memo.capacity);
  Alcotest.(check bool) "the last point recalled" true
    (recall memo (sim_line (List.nth ps Salam_served.Memo.capacity)) <> None)

(* Every key added is found with its value, amid other bytes; a key one
   byte off is not. *)
let qcheck_memo_finds_what_it_holds =
  let module Memo = Salam_served.Memo in
  QCheck.Test.make ~name:"memo finds each key in place, and nothing one byte off" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list string)
       QCheck.Gen.(list_size (int_range 1 60) (string_size ~gen:printable (int_range 1 40))))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let memo = Memo.create () in
      List.iteri
        (fun i k -> Memo.add memo ("<<" ^ k ^ ">>") 2 (String.length k) (Int64.of_int i))
        keys;
      let off_by_one k =
        String.mapi (fun j c -> if j = 0 then Char.chr ((Char.code c + 1) land 0x7f) else c) k
      in
      List.length keys = Memo.size memo
      && List.for_all2
           (fun i k ->
             let n = String.length k and k' = off_by_one k in
             let e = Memo.find memo k 0 n in
             e >= 0
             && Memo.value memo e = Int64.of_int i
             && (List.mem k' keys || Memo.find memo k' 0 n < 0))
           (List.init (List.length keys) Fun.id)
           keys)

(* A reader that takes its replies a few bytes at a time, after the
   daemon has filled the socket, still gets every line byte for byte: a
   400-point sweep answered from the store (its request line, some 80
   KiB, goes out in more than one write), and an error reply of some 70
   KiB, longer than one write takes. *)
let test_slow_reader_gets_every_line () =
  let ps = clock_points 400 in
  let lines = List.map (fun p -> M.to_line (stored_for p)) ps in
  let huge = String.make 70_000 'w' in
  let expected =
    List.mapi (fun i line -> P.splice ~id:9L ~index:i ~served:"hit" line) lines
    @ [
        P.encode_response ~id:9L (P.Sweep_done { points = 400; hits = 400; sims = 0; deduped = 0 });
        P.encode_response ~id:10L (P.Failed ("unknown workload " ^ huge));
      ]
  in
  with_store (String.concat "" (List.map (fun l -> l ^ "\n") lines)) (fun store ->
      with_server ~store_dir:store (fun socket _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let w = P.writer fd in
              P.send_request w ~id:9L (P.Sweep (tiny_spec, ps));
              P.send_request w ~id:10L (P.Sim ({ tiny_spec with P.workload = huge }, point 2));
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
              Unix.sleepf 0.2;
              let got = Buffer.create (1 lsl 19) and chunk = Bytes.create 7 in
              let newlines = ref 0 in
              while !newlines < List.length expected do
                let k = Unix.read fd chunk 0 (Bytes.length chunk) in
                if k = 0 then Alcotest.fail "the daemon hung up";
                for j = 0 to k - 1 do
                  if Bytes.get chunk j = '\n' then incr newlines
                done;
                Buffer.add_subbytes got chunk 0 k
              done;
              Alcotest.(check int) "every line" (List.length expected) !newlines;
              Alcotest.(check bool) "byte for byte" true
                (Buffer.contents got = String.concat "" (List.map (fun l -> l ^ "\n") expected)))))

(* A client that sends more than the line bound without a newline gets
   an error reply naming the bound and is hung up on; another client is
   served meanwhile. *)
let test_overlong_line_refused () =
  let line = M.to_line (stored_for (point 2)) in
  with_store (line ^ "\n") (fun store ->
      with_server ~store_dir:store (fun socket _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let chunk = Bytes.make 65536 'x' in
              let rec send left =
                if left > 0 then send (left - Unix.write fd chunk 0 (min left 65536))
              in
              send (P.max_line + 1);
              (* a daemon that waits for the newline fails the test, not hangs it *)
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
              let ic = Unix.in_channel_of_descr fd in
              (match P.decode_response (input_line ic) with
              | Ok (0L, `Terminal (P.Failed e)) ->
                  Alcotest.(check string) "the bound named" "request line longer than 8388608 bytes" e
              | _ -> Alcotest.fail "an over-long line must yield a type=error reply");
              match input_line ic with
              | exception End_of_file -> ()
              | l -> Alcotest.failf "the connection stayed open: %s" l);
          Client.with_connection socket (fun c ->
              let served, m = Client.sim c ~spec:tiny_spec (point 2) in
              Alcotest.(check string) "another client hits" "hit" served;
              Alcotest.(check string) "its stored line" line (M.to_line m))))

(* [sweep_batches] keeps every point, in order, and cuts only where a
   run's line would pass the bound. *)
let test_sweep_batches () =
  let points = List.init 40 (fun j -> point (1 lsl (j mod 5))) in
  let width ps = String.length (P.encode_request ~id:Int64.min_int (P.Sweep (tiny_spec, ps))) in
  let whole = width points in
  List.iter
    (fun (max_line, expected) ->
      let batches = P.sweep_batches ~max_line tiny_spec points in
      Alcotest.(check (list int))
        (Printf.sprintf "every point in order (bound %d)" max_line)
        (List.map (fun _ -> 0) points)
        (List.map2 Point.compare (List.concat batches) points);
      List.iter
        (fun b ->
          if List.length b > 1 && width b > max_line then
            Alcotest.failf "a run of %d points is %d bytes, over %d" (List.length b) (width b)
              max_line)
        batches;
      Alcotest.(check int) (Printf.sprintf "runs (bound %d)" max_line) expected (List.length batches))
    [ (P.max_line, 1); (whole, 1); (whole - 1, 2); (whole / 3, 4); (0, 40) ];
  Alcotest.(check int) "an empty sweep is one empty run" 1
    (List.length (P.sweep_batches ~max_line:P.max_line tiny_spec []))

(* A sweep whose one line the daemon would refuse goes as several
   requests: every point is answered, in order, and counted once. *)
let test_long_sweep_split () =
  let stored = stored_for (point 2) in
  let line = M.to_line stored in
  let n = (P.max_line / (String.length (Point.to_compact (point 2)) + 1)) + 1 in
  let points = List.init n (fun j -> if j = n / 2 then point 4 else point 2) in
  Alcotest.(check bool)
    "one line would pass the bound" true
    (String.length (P.encode_request ~id:1L (P.Sweep (tiny_spec, points))) > P.max_line);
  with_store (line ^ "\n") (fun store ->
      with_server ~store_dir:store (fun socket server ->
          Client.with_connection socket (fun c ->
              match Client.sweep c ~spec:tiny_spec points with
              | P.Sweep_done { points = np; hits; sims; deduped }, answers ->
                  Alcotest.(check (list int))
                    "points, hits, sims, dedups" [ n; n - 1; 1; 0 ] [ np; hits; sims; deduped ];
                  Alcotest.(check int) "every point answered" n (List.length answers);
                  List.iteri
                    (fun j (served, m) ->
                      if j = n / 2 then Alcotest.(check string) "the cold point simulated" "sim" served
                      else if served <> "hit" || m.M.fp <> stored.M.fp then
                        Alcotest.failf "point %d answered %s with %s" j served
                          (Point.fingerprint_hex m.M.fp))
                    answers;
                  Alcotest.(check int) "one simulation" 1 (Server.stats_snapshot server).P.st_simulated
              | _ -> Alcotest.fail "a sweep ends in done")))

(* An older client may still ask for a progress stream with
   ["progress":true], a member no client writes now: the request is
   refused with its id, naming the offset, and the connection answers the
   next requests as usual. *)
let test_progress_member_refused () =
  let line = M.to_line (stored_for (point 2)) in
  let plain = P.encode_request ~id:5L (P.Sim (tiny_spec, point 2)) in
  let subscribed =
    match String.split_on_char '}' plain with
    | [ body; "" ] -> body ^ ",\"progress\":true}"
    | _ -> Alcotest.failf "unexpected request line %s" plain
  in
  with_store (line ^ "\n") (fun store ->
      with_server ~store_dir:store (fun socket _ ->
          match
            raw_exchange socket [ subscribed; plain; P.encode_request ~id:6L P.Ping ]
          with
          | [ [ old_reply ]; [ reply ]; [ pong ] ] ->
              Alcotest.(check string) "the older request refused"
                (P.encode_response ~id:5L
                   (P.Failed
                      (Printf.sprintf "bad request line: expected '}' at offset %d"
                         (String.length plain - 1))))
                old_reply;
              Alcotest.(check string) "the reply is the stored hit"
                (P.splice ~id:5L ~served:"hit" line) reply;
              Alcotest.(check string) "the connection's next reply is the pong"
                (P.encode_response ~id:6L P.Pong) pong
          | replies ->
              Alcotest.failf "expected one line per request, got %s"
                (String.concat "/" (List.map (fun r -> string_of_int (List.length r)) replies))))

(* A daemon opens its store as any other caller does: a line in
   another spelling (keys reversed, an extra key, spaces) refuses the
   store by path and line before the socket is bound, and the file keeps
   its bytes. *)
let test_non_canonical_line_refused () =
  let m = stored_for (point 4) in
  let members = List.rev ("\"note\":\"extra\"" :: Test_codec.split_members (M.to_line m)) in
  let spaced = "{ " ^ String.concat " , " members ^ " }" in
  with_store (spaced ^ "\n") (fun store ->
      let socket = fresh_socket () in
      (match Server.start { Server.socket_path = socket; store_dir = Some store; workers = 1 } with
      | exception Failure e ->
          Alcotest.(check bool) (e ^ " names the store") true (Test_store_shard.contains e store);
          Alcotest.(check bool) (e ^ " names the line") true (Test_store_shard.contains e "line 1 ")
      | t ->
          Server.stop t;
          Server.wait t;
          Alcotest.fail "the daemon opened the store");
      Alcotest.(check bool) "no socket bound" false (Sys.file_exists socket);
      Alcotest.(check string) "store file untouched" (spaced ^ "\n")
        (Test_store_shard.read_file (Test_store_shard.lines_of store)))

(* A listener standing in for the daemon: it reads one request line,
   writes [reply] as it is, ends its output and waits for the client to
   hang up. *)
let with_fake_daemon reply f =
  let socket = fresh_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let fake =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        ignore (input_line ic);
        output_string oc reply;
        flush oc;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        (try ignore (input_line ic) with End_of_file | Sys_error _ -> ());
        Unix.close fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join fake;
      Unix.close listener;
      Sys.remove socket)
    (fun () -> Client.with_connection socket f)

(* a reply whose measurement does not decode reaches the caller with the
   field named *)
let test_client_names_the_bad_field () =
  let reply =
    P.splice ~id:1L ~served:"hit" (Test_codec.drop_member (M.to_line (synthetic 7)) "cycles")
  in
  with_fake_daemon (reply ^ "\n") (fun c ->
      match Client.sim c ~spec:tiny_spec (point 2) with
      | _ -> Alcotest.fail "a reply without cycles decoded"
      | exception Client.Protocol_error e ->
          Alcotest.(check bool) e true
            (Test_store_shard.contains e "undecodable response: result: missing field \"cycles\""))

(* [Protocol.next] splits any byte stream as [String.split_on_char]
   does (a last line may lack its newline), bytes next to '\n' and high
   bytes included, wherever the word-at-a-time scan starts *)
let qcheck_next_splits_like_split_on_char =
  QCheck.Test.make ~name:"Protocol.next splits like split_on_char" ~count:300
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(string_size ~gen:(oneofl [ '\n'; '\t'; '\011'; 'x'; '\138'; '\255' ]) (0 -- 200)))
    (fun text ->
      let rd, wr = Unix.pipe () in
      ignore (Unix.write_substring wr text 0 (String.length text));
      Unix.close wr;
      let r = P.reader rd in
      let rec lines acc =
        match P.next r with
        | `Line -> lines (String.sub (P.line_src r) (P.line_off r) (P.line_len r) :: acc)
        | `Eof -> List.rev acc
        | `Too_long -> QCheck.Test.fail_report "too long"
      in
      let got = lines [] in
      Unix.close rd;
      let want =
        match List.rev (String.split_on_char '\n' text) with
        | "" :: rest -> List.rev rest
        | all -> List.rev all
      in
      got = want || QCheck.Test.fail_reportf "read %d lines, want %d" (List.length got) (List.length want))

(* the client reads replies as the daemon reads requests: a line that
   passes the bound without a newline is refused, naming the bound *)
let test_client_refuses_overlong_reply () =
  with_fake_daemon (String.make (P.max_line + 1) 'x') (fun c ->
      match Client.ping c with
      | () -> Alcotest.fail "an over-long reply was read"
      | exception Client.Protocol_error e ->
          Alcotest.(check bool) e true
            (Test_store_shard.contains e (Printf.sprintf "longer than %d bytes" P.max_line)))

(* --- the dedup guarantee under concurrent clients ----------------- *)

let test_concurrent_clients_dedup () =
  (* K clients race the same cold sweep; the daemon must run exactly one
     simulation per unique fingerprint and answer everyone
     bit-identically. The served tags are the witness: across the K
     replies, each point is tagged [sim] exactly once, by its owner. *)
  let k = 6 in
  let points = [ point 1; point 2; point 8 ] in
  let unique = List.length points in
  with_server ~workers:2 (fun socket server ->
      let answers = Array.make k [] in
      let errors = Array.make k None in
      let threads =
        List.init k (fun i ->
            Thread.create
              (fun () ->
                try
                  Client.with_connection socket (fun c ->
                      let _done_, got = Client.sweep c ~spec:tiny_spec points in
                      answers.(i) <- List.map (fun (served, m) -> (served, M.to_line m)) got)
                with e -> errors.(i) <- Some (Printexc.to_string e))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i -> function
          | Some e -> Alcotest.fail (Printf.sprintf "client %d failed: %s" i e)
          | None -> ())
        errors;
      (* all K responses bit-identical, point for point *)
      let lines_of a = List.map snd a in
      let reference = lines_of answers.(0) in
      Alcotest.(check int) "every point answered" unique (List.length reference);
      Array.iteri
        (fun i a ->
          Alcotest.(check (list string))
            (Printf.sprintf "client %d bit-identical" i)
            reference (lines_of a))
        answers;
      (* exactly one simulation per unique fingerprint *)
      let st = Server.stats_snapshot server in
      Alcotest.(check int) "one simulation per unique point" unique st.P.st_simulated;
      Alcotest.(check int) "one miss per unique point" unique st.P.st_misses;
      Alcotest.(check int) "every other answer shared" ((k - 1) * unique)
        (st.P.st_hits + st.P.st_deduped);
      List.iteri
        (fun i p ->
          let owners =
            Array.fold_left
              (fun n a -> if fst (List.nth a i) = "sim" then n + 1 else n)
              0 answers
          in
          Alcotest.(check int)
            (Printf.sprintf "%s tagged sim exactly once" (Point.to_compact p))
            1 owners)
        points)

(* Out-of-range points are refused by the daemon before its store
   lookup, naming the key and the value: nothing is counted as a hit or
   a miss, and the connection stays usable. *)
let test_out_of_range_points_refused () =
  with_server (fun socket server ->
      Client.with_connection socket (fun c ->
          let refused ?(spec = tiny_spec) p named =
            match Client.sim c ~spec p with
            | _ -> Alcotest.failf "%s answered" named
            | exception Client.Protocol_error e ->
                let n = String.length named in
                let rec mentions i =
                  i + n <= String.length e && (String.sub e i n = named || mentions (i + 1))
                in
                Alcotest.(check bool) (Printf.sprintf "%S names %s" e named) true (mentions 0)
          in
          refused { (point 2) with Point.read_ports = 0 } "read_ports=0";
          refused { (point 2) with Point.banks = 0 } "banks=0";
          refused { (point 2) with Point.unroll = 0 } "unroll=0";
          refused { (point 2) with Point.unroll = 3 } "unroll=3";
          refused
            { Point.default with Point.memory = Point.Cache; cache_bytes = 100 }
            "cache_bytes=100";
          refused ~spec:{ tiny_spec with P.workload = "stencil2d" }
            { (point 2) with Point.junroll = 2 }
            "junroll=2";
          (* one bad point fails the whole sweep before any simulation *)
          (match Client.sweep c ~spec:tiny_spec [ point 2; { (point 4) with Point.clock_mhz = 0. } ] with
          | _ -> Alcotest.fail "a sweep with a bad point answered"
          | exception Client.Protocol_error _ -> ());
          Client.ping c);
      let st = Server.stats_snapshot server in
      Alcotest.(check int) "no store lookup" 0 (st.P.st_hits + st.P.st_misses);
      Alcotest.(check int) "no simulation" 0 st.P.st_simulated)

(* A client that sends a cold sweep and hangs up before reading any
   reply costs nobody their answer: the daemon finishes and stores every
   point, answers a client deduped onto those points, and keeps
   serving. One worker and six gemm16 points keep the first sweep in
   flight long after the second client has joined it. *)
let test_client_disconnect_mid_sweep () =
  let spec = { tiny_spec with P.gemm_n = 16; invocations = 2 } in
  let points = List.map point [ 1; 2; 4; 8; 16; 32 ] in
  let n = List.length points in
  with_server ~workers:1 (fun socket server ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let req = P.encode_request ~id:1L (P.Sweep (spec, points)) ^ "\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      Unix.close fd;
      let rec await_resolved tries =
        if (Server.stats_snapshot server).P.st_misses < n then begin
          if tries = 0 then Alcotest.fail "the abandoned sweep was never resolved";
          Thread.delay 0.001;
          await_resolved (tries - 1)
        end
      in
      await_resolved 10_000;
      let sweep () = Client.with_connection socket (fun c -> snd (Client.sweep c ~spec points)) in
      let lines answers = List.map (fun (_, m) -> M.to_line m) answers in
      let joined = sweep () in
      let st = Server.stats_snapshot server in
      Alcotest.(check int) "the joining client gets every point" n (List.length joined);
      Alcotest.(check bool) "it joined the abandoned simulations" true (st.P.st_deduped >= 1);
      Alcotest.(check int) "each point simulated once" n st.P.st_simulated;
      let warm = sweep () in
      Alcotest.(check (list string)) "every point stored: all hits"
        (List.init n (fun _ -> "hit"))
        (List.map fst warm);
      Alcotest.(check (list string)) "hits = what the joining client got" (lines joined)
        (lines warm))

let test_duplicate_points_in_one_sweep_dedup () =
  with_server (fun socket server ->
      Client.with_connection socket (fun c ->
          let _done_, answers =
            Client.sweep c ~spec:tiny_spec [ point 16; point 16; point 16 ]
          in
          (match answers with
          | [ (_, a); (_, b); (_, c') ] ->
              Alcotest.(check string) "same line 1" (M.to_line a) (M.to_line b);
              Alcotest.(check string) "same line 2" (M.to_line a) (M.to_line c')
          | _ -> Alcotest.fail "expected three answers");
          let st = Server.stats_snapshot server in
          Alcotest.(check int) "one simulation" 1 st.P.st_simulated;
          Alcotest.(check int) "two deduped" 2 st.P.st_deduped))

(* The built daemon, idle, stops on SIGTERM: it exits within 2 s with
   status 0 and removes its socket. A signal handler alone never ran
   while every thread sat in accept or Condition.wait. *)
let test_sigterm_stops_idle_daemon () =
  let path = Filename.temp_file "salam_served_sig" ".sock" in
  Sys.remove path;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process (Test_dse.bin "salam_served")
      [| "salam_served"; "serve"; "--socket"; path |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let within seconds cond =
    let deadline = Unix.gettimeofday () +. seconds in
    let rec go () = cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.01; go ())) in
    go ()
  in
  let kill_hard () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  if not (within 10. (fun () -> Sys.file_exists path)) then begin
    kill_hard ();
    Alcotest.fail "the daemon never bound its socket"
  end;
  (* let every thread settle into its blocking wait *)
  Unix.sleepf 0.2;
  Unix.kill pid Sys.sigterm;
  let status = ref None in
  let exited =
    within 2. (fun () ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _, st ->
            status := Some st;
            true)
  in
  if not exited then kill_hard ();
  Alcotest.(check bool) "exits within 2 s of SIGTERM" true exited;
  Alcotest.(check bool) "exit status 0" true (!status = Some (Unix.WEXITED 0));
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

(* The daemon reads SALAM_DOMAINS when it starts serving: a bad value
   exits 1 naming the variable, before the socket is bound. *)
let test_bad_domains_refused () =
  let path = Filename.temp_file "salam_served_domains" ".sock" in
  Sys.remove path;
  Test_dse.check_bad_domains (Test_dse.bin "salam_served")
    [ "salam_served"; "serve"; "--socket"; path ];
  Alcotest.(check bool) "no socket bound" false (Sys.file_exists path)

let suite =
  [
    Alcotest.test_case "request round-trips" `Quick test_request_round_trips;
    Alcotest.test_case "response round-trips" `Quick test_response_round_trips;
    Alcotest.test_case "stats reply from an older daemon refused" `Quick
      test_old_daemon_stats_refused;
    Alcotest.test_case "malformed requests rejected" `Quick test_malformed_requests_rejected;
    Alcotest.test_case "ambiguous compact points rejected" `Quick test_ambiguous_points_rejected;
    Alcotest.test_case "integers outside the int range refused" `Quick
      test_out_of_range_request_integers;
    Alcotest.test_case "daemon smoke over a temp socket" `Quick test_daemon_smoke;
    Alcotest.test_case "garbage line keeps connection usable" `Quick
      test_garbage_line_keeps_connection_usable;
    Alcotest.test_case "shutdown request stops the daemon" `Quick
      test_shutdown_request_stops_daemon;
    Alcotest.test_case "persistence across restart" `Quick test_persistence_across_restart;
    Alcotest.test_case "hit reply is the envelope and the stored bytes" `Quick
      test_hit_reply_is_envelope_and_stored_bytes;
    Alcotest.test_case "an older client's progress member is refused" `Quick
      test_progress_member_refused;
    Alcotest.test_case "non-canonical stored line refused at open" `Quick
      test_non_canonical_line_refused;
    Alcotest.test_case "client names the bad field" `Quick test_client_names_the_bad_field;
    Alcotest.test_case "client refuses an over-long reply line" `Quick
      test_client_refuses_overlong_reply;
    QCheck_alcotest.to_alcotest qcheck_next_splits_like_split_on_char;
    Alcotest.test_case "over-long request line refused, others served" `Quick
      test_overlong_line_refused;
    Alcotest.test_case "sweep cut into runs that fit a line" `Quick test_sweep_batches;
    Alcotest.test_case "sweep longer than a line answered in order" `Quick test_long_sweep_split;
    Alcotest.test_case "fast-forward snapshots isolated per roadmark" `Quick
      test_fast_forward_snapshots_isolated_per_roadmark;
    Alcotest.test_case "concurrent clients dedup to one simulation" `Quick
      test_concurrent_clients_dedup;
    Alcotest.test_case "out-of-range points refused before lookup" `Quick
      test_out_of_range_points_refused;
    Alcotest.test_case "client hanging up mid-sweep costs nobody" `Quick
      test_client_disconnect_mid_sweep;
    Alcotest.test_case "duplicate points in one sweep dedup" `Quick
      test_duplicate_points_in_one_sweep_dedup;
    Alcotest.test_case "idle daemon stops on SIGTERM" `Quick test_sigterm_stops_idle_daemon;
    Alcotest.test_case "bad SALAM_DOMAINS refused at serve" `Quick test_bad_domains_refused;
    Alcotest.test_case "memo: a repeat answers like a fresh daemon" `Quick
      test_memo_repeat_answers_like_fresh_daemon;
    Alcotest.test_case "memo: keyed by the bytes after the id" `Quick test_memo_keys;
    Alcotest.test_case "memo: a refused point is refused again" `Quick test_memo_keeps_no_refusal;
    Alcotest.test_case "memo: bounded by its capacity" `Quick test_memo_bounded;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) qcheck_memo_finds_what_it_holds;
    Alcotest.test_case "slow reader gets every line byte for byte" `Quick
      test_slow_reader_gets_every_line;
  ]
