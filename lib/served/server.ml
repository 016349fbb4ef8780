(* The long-lived DSE simulation daemon.

   Concurrency layout:
   - one accept thread owns the listening socket;
   - one handler systhread per client connection reads request lines
     and resolves them (these threads block on IO and on full queues,
     never on simulation);
   - a pool of OCaml 5 worker *domains* drains a bounded job queue and
     runs the actual simulations in parallel;
   - the store serializes every find and add on its one lock, and an
     in-flight table guarantees that any fingerprint is being simulated
     at most once at any moment — every concurrent request for it waits
     on the same pending entry and receives the same measurement;
   - answers are the store's lines: a hit replies with the line it finds
     and a simulation with the line the store adds, each spliced behind
     its envelope, so no measurement is re-encoded on the way out;
   - each handler keeps a memo of the request bytes its connection has
     resolved, so a repeat goes from its bytes to the store lookup
     without being decoded, checked or fingerprinted again.

   Lock order (outer to inner): state lock -> store lock; queue lock
   and per-connection write lock are leaves. Workers take the store
   lock (inside Store_shard) strictly before the state lock and never
   hold both. *)

module P = Protocol
module Point = Salam_dse.Point
module Store_shard = Salam_dse.Store_shard
module Explore = Salam_dse.Explore
module Jsonl = Salam_dse.Jsonl

type config = {
  socket_path : string;
  store_dir : string option;  (** [None] = in-memory store *)
  workers : int;
}

let default_config () =
  { socket_path = ""; store_dir = None; workers = max 1 (Salam.default_domains () - 1) }

(* submitters block once this many jobs wait for a worker *)
let queue_slots = 64

(* a simulated measurement reaches its waiters with the line the store
   holds for it *)
type pending = { mutable waiters : ((string, string) result -> unit) list }

type conn = {
  c_fd : Unix.file_descr;
  c_w : P.writer;
  c_out_lock : Mutex.t;
  mutable c_thread : Thread.t option;
  mutable c_closed : bool;  (** guarded by the state lock: the fd is
                                closed exactly once, and never shut down
                                after it has been closed (fd reuse) *)
}

type t = {
  cfg : config;
  store : Store_shard.t;
  lock : Mutex.t;  (** inflight, misses, deduped, simulated, conns; held to set stopping *)
  drained : Condition.t;  (** signaled whenever inflight goes empty *)
  inflight : (int64, pending) Hashtbl.t;
  q : Explore.job Queue.t;
  q_lock : Mutex.t;
  q_not_empty : Condition.t;
  q_not_full : Condition.t;
  mutable q_closed : bool;
  hits : int Atomic.t;  (** a hit takes no lock but the store's *)
  mutable misses : int;
  mutable deduped : int;
  mutable simulated : int;
  requests : int Atomic.t;
  stopping : bool Atomic.t;
  mutable stopped : bool;
  finished : Condition.t;  (** signaled once fully stopped *)
  mutable conns : conn list;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable worker_domains : unit Domain.t list;
  snapshots : (string, Salam.snapshot) Hashtbl.t;
  snap_lock : Mutex.t;
}

(* --- per-request context ------------------------------------------------ *)

type request_ctx = {
  r_conn : conn;
  r_id : int64;  (** client-chosen wire id *)
}

(* a client that went away is noticed by the reader *)
let write_line conn line =
  Mutex.lock conn.c_out_lock;
  (try P.send_line conn.c_w line with Unix.Unix_error _ -> ());
  Mutex.unlock conn.c_out_lock

let fresh_ctx t conn ~id =
  Atomic.incr t.requests;
  { r_conn = conn; r_id = id }

(* --- the bounded job queue ---------------------------------------------- *)

exception Rejected of string

let enqueue t job =
  Mutex.lock t.q_lock;
  while Queue.length t.q >= queue_slots && not t.q_closed do
    Condition.wait t.q_not_full t.q_lock
  done;
  if t.q_closed then begin
    Mutex.unlock t.q_lock;
    raise (Rejected "server is shutting down")
  end;
  Queue.push job t.q;
  Condition.signal t.q_not_empty;
  Mutex.unlock t.q_lock

let dequeue t =
  Mutex.lock t.q_lock;
  while Queue.is_empty t.q && not t.q_closed do
    Condition.wait t.q_not_empty t.q_lock
  done;
  let job = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Condition.signal t.q_not_full;
  Mutex.unlock t.q_lock;
  job

(* --- workers ------------------------------------------------------------ *)

(* interpret-once/simulate-many, server edition: the warm-up snapshot is
   memoised per key (workload identity, memory kind, roadmark) under a
   lock held across the warm-up, so concurrent cold requests trigger
   exactly one interpreter pass — the same single-shot discipline as the
   workload compile cache. *)
let snapshot_for t key warm_up =
  Mutex.lock t.snap_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.snap_lock)
    (fun () ->
      match Hashtbl.find_opt t.snapshots key with
      | Some s -> s
      | None ->
          let s = warm_up () in
          Hashtbl.add t.snapshots key s;
          s)

let run_job t job =
  match Explore.measure ~domains:1 ~snapshot:(snapshot_for t) [ job ] with
  | [ m ], _ -> m
  | _ -> assert false

let complete t job result =
  (* store first, then retire the pending entry: any thread that misses
     the inflight table afterwards is guaranteed to hit the store *)
  let result = Result.map (Store_shard.add_line t.store) result in
  Mutex.lock t.lock;
  t.simulated <- t.simulated + 1;
  let waiters =
    match Hashtbl.find_opt t.inflight (Explore.job_fp job) with
    | Some p ->
        Hashtbl.remove t.inflight (Explore.job_fp job);
        List.rev p.waiters
    | None -> []
  in
  if Hashtbl.length t.inflight = 0 then Condition.broadcast t.drained;
  Mutex.unlock t.lock;
  List.iter (fun k -> k result) waiters

let worker_loop t () =
  let rec go () =
    match dequeue t with
    | None -> ()
    | Some job ->
        let result =
          match run_job t job with
          | m -> Ok m
          | exception e -> Error (Printexc.to_string e)
        in
        complete t job result;
        go ()
  in
  go ()

(* --- request resolution ------------------------------------------------- *)

let plan_of (spec : P.spec) =
  let target =
    if spec.P.workload = "gemm" then Ok (Explore.gemm_target ~n:spec.P.gemm_n ())
    else Explore.suite_target spec.P.workload
  in
  Result.map
    (fun target ->
      {
        Explore.target;
        invocations = spec.P.invocations;
        fast_forward = spec.P.fast_forward;
      })
    target

(* a [sim] line the memo holds: its id and its point's fingerprint *)
type recalled = { r_id : int64; fp : int64 }

type resolved = { plan : Explore.plan; point : Point.t; fp : int64 }

type request =
  | Ping
  | Stats
  | Shutdown
  | Sim of resolved
  | Sweep of resolved list
  | Refused of string

(* every point passes [Explore.check] before any store lookup or
   simulation, or the whole request fails naming the first bad one *)
let resolve_points spec points =
  match plan_of spec with
  | Error e -> Error e
  | Ok plan -> (
      let points = List.map Point.canonical points in
      match
        List.find_map
          (fun p ->
            match Explore.check plan.Explore.target p with
            | Ok () -> None
            | Error (_, e) -> Some e)
          points
      with
      | Some e -> Error e
      | None -> Ok (List.map (fun p -> { plan; point = p; fp = Explore.fingerprint plan p }) points))

(* The memo a connection keeps of the [sim] requests it has resolved. A
   request line in canonical form, [{"id":N,"op":"sim",…], decodes to the
   same request whatever its id, so it is keyed by its bytes after the
   id member and maps to the point's fingerprint. Only points that
   passed [Explore.check] are kept, so a refused point is refused afresh
   every time (a database loaded since may let it through). A [sweep]
   always takes the full path: a client sends each of a sweep's points
   once, so the memo would never hold all of them. *)
type memo = Memo.t

let memo = Memo.create
let memo_size = Memo.size

let id_head = "{\"id\":"
let sim_head = ",\"op\":\"sim\","

(* Where the id member of a line that starts [{"id":N,] ends, N a bare
   integer of at most 18 digits as [encode_request] writes it (so the
   decoder reads it alike); else [-1]. *)
let after_id src off len =
  let stop = off + len and first = off + String.length id_head in
  if len <= String.length id_head + 1 || not (Jsonl.key_is src off (String.length id_head) id_head)
  then -1
  else
    let d = if String.unsafe_get src first = '-' then first + 1 else first in
    let j = ref d in
    while !j < stop && String.unsafe_get src !j >= '0' && String.unsafe_get src !j <= '9' do
      incr j
    done;
    let n = !j - d in
    if
      n = 0 || n > 18
      || (String.unsafe_get src d = '0' && (n > 1 || d > first))
      || !j >= stop
      || String.unsafe_get src !j <> ','
    then -1
    else !j

let id_of src off ~upto =
  let first = off + String.length id_head in
  let neg = String.unsafe_get src first = '-' in
  let n = ref 0 in
  for j = (if neg then first + 1 else first) to upto - 1 do
    n := (!n * 10) + Char.code (String.unsafe_get src j) - 48
  done;
  Int64.of_int (if neg then - !n else !n)

let recall memo src off len =
  let key = after_id src off len in
  if key < 0 || not (Jsonl.key_is src key (String.length sim_head) sim_head) then None
  else
    let e = Memo.find memo src key (off + len - key) in
    if e < 0 then None else Some { r_id = id_of src off ~upto:key; fp = Memo.value memo e }

let remember memo src off len = function
  | Sim r ->
      let key = after_id src off len in
      if key >= 0 && Jsonl.key_is src key (String.length sim_head) sim_head then
        Memo.add memo src key (off + len - key) r.fp
  | Sweep _ | Ping | Stats | Shutdown | Refused _ -> ()

let resolve_line memo src off len =
  match P.decode_request_sub src off len with
  | Error _ as e -> e
  | Ok (id, req) ->
      let req =
        match req with
        | P.Ping -> Ping
        | P.Stats -> Stats
        | P.Shutdown -> Shutdown
        | P.Sim (spec, p) -> (
            match resolve_points spec [ p ] with
            | Ok rs -> Sim (List.hd rs)
            | Error e -> Refused e)
        | P.Sweep (spec, ps) -> (
            match resolve_points spec ps with Ok rs -> Sweep rs | Error e -> Refused e)
      in
      remember memo src off len req;
      Ok (id, req)

(* --- answering points --------------------------------------------------- *)

(* A point the store holds is answered under the store lock alone. *)
let hit t fp =
  if Atomic.get t.stopping then Some (Error "server is shutting down")
  else
    match Store_shard.find_line t.store ~fp with
    | Some line ->
        Atomic.incr t.hits;
        Some (Ok ("hit", line))
    | None -> None

(* Resolve one canonical point the store did not hold: answer from the
   store after all (a worker may have stored it since), join an
   in-flight simulation, or become the owner of a fresh one. [k] fires
   exactly once with the served tag and the measurement's stored line
   (possibly on a worker domain); the returned job, if any, must be
   enqueued by the caller outside the state lock. *)
let resolve t plan p fp k =
  Mutex.lock t.lock;
  if Atomic.get t.stopping then begin
    Mutex.unlock t.lock;
    k (Error "server is shutting down");
    None
  end
  else
    match Store_shard.find_line t.store ~fp with
    | Some line ->
        Atomic.incr t.hits;
        Mutex.unlock t.lock;
        k (Ok ("hit", line));
        None
    | None -> (
        let deliver served r = k (Result.map (fun line -> (served, line)) r) in
        match Hashtbl.find_opt t.inflight fp with
        | Some pend ->
            pend.waiters <- deliver "dedup" :: pend.waiters;
            t.deduped <- t.deduped + 1;
            Mutex.unlock t.lock;
            None
        | None ->
            Hashtbl.add t.inflight fp { waiters = [ deliver "sim" ] };
            t.misses <- t.misses + 1;
            Mutex.unlock t.lock;
            Some (Explore.job plan p))

(* Answer a whole batch: hits straight from the store; only when a point
   is pending does the handler thread set up a rendezvous, resolve the
   rest and block until every point has an answer. Replies stream back
   in point order. *)
let eval_points t rs =
  let answers = List.map (fun r -> hit t r.fp) rs in
  if List.for_all Option.is_some answers then List.map Option.get answers
  else begin
    let slots = Array.of_list answers in
    let remaining = ref (List.length (List.filter Option.is_none answers)) in
    let lock = Mutex.create () in
    let all_done = Condition.create () in
    let fill i r =
      Mutex.lock lock;
      slots.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock lock
    in
    let jobs =
      List.concat
        (List.mapi
           (fun i (r, answer) ->
             if Option.is_some answer then []
             else Option.to_list (resolve t r.plan r.point r.fp (fill i)))
           (List.combine rs answers))
    in
    (* enqueue owned jobs after all resolutions: the inflight entries
       already exist, so concurrent requests dedup against them even
       while this thread blocks on a full queue *)
    let rec enqueue_all = function
      | [] -> ()
      | job :: rest -> (
          match enqueue t job with
          | () -> enqueue_all rest
          | exception Rejected e ->
              (* retire only the jobs that never made it into the queue,
                 so the drain cannot wait on jobs nobody will run; the
                 already-enqueued prefix will complete normally, and
                 error-completing it here would hand waiters deduped onto
                 those jobs a spurious failure *)
              List.iter (fun j -> complete t j (Error e)) (job :: rest))
    in
    enqueue_all jobs;
    Mutex.lock lock;
    while !remaining > 0 do
      Condition.wait all_done lock
    done;
    Mutex.unlock lock;
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> Error "internal: unresolved point slot")
         slots)
  end

(* --- request handling --------------------------------------------------- *)

let respond ctx resp = write_line ctx.r_conn (P.encode_response ~id:ctx.r_id resp)

let respond_line ctx ?index ~served line =
  let conn = ctx.r_conn in
  Mutex.lock conn.c_out_lock;
  (try P.send_splice conn.c_w ~id:ctx.r_id ?index ~served line with Unix.Unix_error _ -> ());
  Mutex.unlock conn.c_out_lock

let reply_sim ctx = function
  | Ok (served, line) -> respond_line ctx ~served line
  | Error e -> respond ctx (P.Failed e)

let reply_sweep ctx results =
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> respond ctx (P.Failed e)
  | None ->
      let hits = ref 0 and sims = ref 0 and deduped = ref 0 in
      List.iteri
        (fun index r ->
          match r with
          | Ok (served, line) ->
              (match served with
              | "hit" -> incr hits
              | "dedup" -> incr deduped
              | _ -> incr sims);
              respond_line ctx ~index ~served line
          | Error _ -> ())
        results;
      respond ctx
        (P.Sweep_done
           { points = List.length results; hits = !hits; sims = !sims; deduped = !deduped })

let handle_sim t ctx r = reply_sim ctx (List.hd (eval_points t [ r ]))

let handle_sweep t ctx rs = reply_sweep ctx (eval_points t rs)

(* The stored line of a [sim] line the memo holds, when the store holds
   it; else the line takes the full path. *)
let recall_stored t memo src off len =
  match recall memo src off len with
  | None -> None
  | Some r ->
      if Atomic.get t.stopping then None
      else
        match Store_shard.find_line t.store ~fp:r.fp with
        | Some line ->
            Atomic.incr t.hits;
            Some (r, line)
        | None -> None

let stats t =
  Mutex.lock t.lock;
  let st =
    {
      P.st_hits = Atomic.get t.hits;
      st_misses = t.misses;
      st_deduped = t.deduped;
      st_simulated = t.simulated;
      st_inflight = Hashtbl.length t.inflight;
      st_queue_depth = (Mutex.lock t.q_lock;
                        let d = Queue.length t.q in
                        Mutex.unlock t.q_lock;
                        d);
      st_store_size = Store_shard.size t.store;
      st_requests = Atomic.get t.requests;
    }
  in
  Mutex.unlock t.lock;
  st

(* --- connection lifecycle ----------------------------------------------- *)

let rec stop t =
  let proceed =
    (* set under the state lock: a miss that saw the flag clear has
       its in-flight entry in place before the drain below looks *)
    Mutex.lock t.lock;
    let p = Atomic.compare_and_set t.stopping false true in
    Mutex.unlock t.lock;
    p
  in
  if proceed then begin
    (* 1. stop accepting: shutting the listener down wakes the accept
       thread, which exits once it sees [stopping] *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
    (* 2. drain: every in-flight simulation completes and its waiters
       are answered before anything is torn down *)
    Mutex.lock t.lock;
    while Hashtbl.length t.inflight > 0 do
      Condition.wait t.drained t.lock
    done;
    Mutex.unlock t.lock;
    (* 3. retire the worker pool *)
    Mutex.lock t.q_lock;
    t.q_closed <- true;
    Condition.broadcast t.q_not_empty;
    Condition.broadcast t.q_not_full;
    Mutex.unlock t.q_lock;
    List.iter Domain.join t.worker_domains;
    t.worker_domains <- [];
    (* 4. hang up on the clients: shutdown gives each handler thread an
       EOF; join them (skipping ourselves if a handler initiated the
       stop), then the fds are closed by their owners. Shutting down
       under the state lock, and only for conns not yet closed, keeps a
       racing handler teardown from handing us a reused fd. *)
    Mutex.lock t.lock;
    let conns = t.conns in
    List.iter
      (fun c ->
        if not c.c_closed then
          try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock t.lock;
    let self = Thread.id (Thread.self ()) in
    List.iter
      (fun c ->
        match c.c_thread with
        | Some th when Thread.id th <> self -> Thread.join th
        | Some _ | None -> ())
      conns;
    (match t.accept_thread with
    | Some th when Thread.id th <> self -> Thread.join th
    | Some _ | None -> ());
    (* 5. release the store and the socket path: the store file ends on
       a complete line, so it reopens clean *)
    Store_shard.close t.store;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.finished;
    Mutex.unlock t.lock
  end

and handle_request t conn memo src off len =
  match recall_stored t memo src off len with
  | Some (r, line) ->
      reply_sim (fresh_ctx t conn ~id:r.r_id) (Ok ("hit", line));
      `Continue
  | None -> handle_resolved t conn (resolve_line memo src off len)

and handle_resolved t conn = function
  | Error (id, e) ->
      write_line conn (P.encode_response ~id (P.Failed e));
      `Continue
  | Ok (id, req) -> (
      let ctx = fresh_ctx t conn ~id in
      match req with
      | Ping ->
          respond ctx P.Pong;
          `Continue
      | Stats ->
          (* counted before the snapshot: the reply includes itself *)
          respond ctx (P.Stats_reply (stats t));
          `Continue
      | Shutdown ->
          respond ctx P.Stopping;
          (* a fresh thread runs the stop so this handler can exit and
             be joined like any other *)
          ignore (Thread.create (fun () -> stop t) ());
          `Close
      | Refused e ->
          respond ctx (P.Failed e);
          `Continue
      | Sim r ->
          handle_sim t ctx r;
          `Continue
      | Sweep rs ->
          handle_sweep t ctx rs;
          `Continue)

(* the request is read where it lies in the reader's buffer; the memo
   lives as long as the connection *)
and handler_loop t conn =
  let r = P.reader conn.c_fd in
  let memo = memo () in
  let rec go () =
    match P.next r with
    | `Eof -> ()
    | `Too_long ->
        write_line conn
          (P.encode_response ~id:0L
             (P.Failed (Printf.sprintf "request line longer than %d bytes" P.max_line)))
    | `Line -> (
        match handle_request t conn memo (P.line_src r) (P.line_off r) (P.line_len r) with
        | `Continue -> go ()
        | `Close -> ())
  in
  go ();
  Mutex.lock t.lock;
  if not conn.c_closed then begin
    conn.c_closed <- true;
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.lock

and accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error _ -> if not (is_stopping t) then go ()
    | fd, _ ->
        if is_stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          let conn =
            {
              c_fd = fd;
              c_w = P.writer fd;
              c_out_lock = Mutex.create ();
              c_thread = None;
              c_closed = false;
            }
          in
          (* publish the conn and register its handler thread in one
             critical section: stop reads t.conns under the same lock,
             so any conn it can see already has a joinable c_thread —
             shutdown never completes with a handler still running *)
          Mutex.lock t.lock;
          t.conns <- conn :: t.conns;
          conn.c_thread <- Some (Thread.create (fun () -> handler_loop t conn) ());
          Mutex.unlock t.lock;
          go ()
        end
  in
  go ()

and is_stopping t = Atomic.get t.stopping

(* --- lifecycle ---------------------------------------------------------- *)

let start cfg =
  if cfg.socket_path = "" then invalid_arg "Server.start: socket_path is empty";
  (* a client hanging up mid-reply must surface as EPIPE on the write,
     not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be at least 1";
  let store =
    match cfg.store_dir with
    | Some dir -> Store_shard.open_ dir
    | None -> Store_shard.in_memory ()
  in
  (* a stale socket file from a crashed daemon would make bind fail;
     refuse to steal it from a live one *)
  if Sys.file_exists cfg.socket_path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then begin
      Store_shard.close store;
      failwith
        (Printf.sprintf "Server.start: %s already has a live daemon" cfg.socket_path)
    end
    else Sys.remove cfg.socket_path
  end;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path)
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     Store_shard.close store;
     raise e);
  Unix.listen listen_fd 64;
  let t =
    {
      cfg;
      store;
      lock = Mutex.create ();
      drained = Condition.create ();
      inflight = Hashtbl.create 64;
      q = Queue.create ();
      q_lock = Mutex.create ();
      q_not_empty = Condition.create ();
      q_not_full = Condition.create ();
      q_closed = false;
      hits = Atomic.make 0;
      misses = 0;
      deduped = 0;
      simulated = 0;
      requests = Atomic.make 0;
      stopping = Atomic.make false;
      stopped = false;
      finished = Condition.create ();
      conns = [];
      listen_fd;
      accept_thread = None;
      worker_domains = [];
      snapshots = Hashtbl.create 8;
      snap_lock = Mutex.create ();
    }
  in
  t.worker_domains <- List.init cfg.workers (fun _ -> Domain.spawn (worker_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  Mutex.lock t.lock;
  while not t.stopped do
    Condition.wait t.finished t.lock
  done;
  Mutex.unlock t.lock

let stats_snapshot = stats
