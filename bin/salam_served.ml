(* The persistent DSE simulation daemon.

     dune exec bin/salam_served.exe -- serve --socket /tmp/salam.sock --store results.d
     dune exec bin/salam_served.exe -- ping --socket /tmp/salam.sock
     dune exec bin/salam_served.exe -- stats --socket /tmp/salam.sock
     dune exec bin/salam_served.exe -- stop --socket /tmp/salam.sock

   `serve` runs in the foreground until SIGINT/SIGTERM or a client's
   shutdown request, then drains in-flight simulations, flushes the
   store and removes the socket. Exit status: 0 on success, 1
   on bad arguments or an unreachable daemon. *)

open Cmdliner
module Server = Salam_served.Server
module Client = Salam_served.Client
module P = Salam_served.Protocol

let die fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n" s; exit 1) fmt

(* --- serve --------------------------------------------------------------- *)

let run_serve socket store workers hw_db_paths =
  (* the fan-out default reads SALAM_DOMAINS: a bad value is refused
     here, before anything is loaded or bound *)
  let workers =
    match workers with
    | Some w -> w
    | None -> (
        match Server.default_config () with
        | c -> c.Server.workers
        | exception Invalid_argument e -> die "%s" e)
  in
  (* register every named characterization database before any request
     arrives: a client point names its database by content hash, and
     resolution fails loudly for hashes this process never loaded *)
  List.iter
    (fun path ->
      match Salam_config.load path with
      | Ok db ->
          let h = Salam_config.register db in
          Printf.printf "[served] hw-db %s: %s (%s)\n%!" path (Salam_config.name db) h
      | Error e -> die "%s" e)
    hw_db_paths;
  let cfg = { Server.socket_path = socket; store_dir = store; workers } in
  (* SIGINT and SIGTERM are blocked before the server starts its threads
     and domains, which inherit the mask, and taken by one thread in
     [Thread.wait_signal]. An OCaml signal handler runs only once some
     thread reaches a safe point, which an idle daemon (every thread
     blocked in accept or Condition.wait) never does. *)
  let signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  let t =
    match Server.start cfg with
    | t -> t
    | exception (Failure e | Invalid_argument e) -> die "%s" e
  in
  ignore
    (Thread.create
       (fun () ->
         ignore (Thread.wait_signal signals);
         Server.stop t)
       ());
  Printf.printf "[served] listening on %s (%s, %d workers)\n%!" socket
    (match store with Some d -> "store " ^ d | None -> "in-memory store")
    workers;
  Server.wait t;
  let st = Server.stats_snapshot t in
  Printf.printf
    "[served] stopped: requests=%d hits=%d misses=%d deduped=%d simulated=%d store=%d\n"
    st.P.st_requests st.P.st_hits st.P.st_misses st.P.st_deduped st.P.st_simulated
    st.P.st_store_size

(* --- client-side commands ------------------------------------------------ *)

let with_client socket f =
  match Client.with_connection socket f with
  | v -> v
  | exception Client.Protocol_error e -> die "%s" e

let run_ping socket =
  let t0 = Unix.gettimeofday () in
  with_client socket Client.ping;
  Printf.printf "[served] pong from %s in %.3f ms\n" socket
    ((Unix.gettimeofday () -. t0) *. 1e3)

let run_stats socket =
  let s = with_client socket Client.stats in
  Printf.printf
    "requests    %d\nhits        %d\nmisses      %d\ndeduped     %d\nsimulated   %d\n\
     inflight    %d\nqueue_depth %d\nstore_size  %d\n"
    s.P.st_requests s.P.st_hits s.P.st_misses s.P.st_deduped s.P.st_simulated
    s.P.st_inflight s.P.st_queue_depth s.P.st_store_size

let run_stop socket =
  with_client socket Client.shutdown;
  (* the daemon acknowledges before draining; wait for the socket file
     to disappear so `stop && serve` sequences are race-free *)
  let rec wait tries =
    if Sys.file_exists socket && tries > 0 then begin
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  wait 200;
  Printf.printf "[served] %s stopped\n" socket

(* --- cmdliner wiring ----------------------------------------------------- *)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Persistent store directory (created on first use); \
                 omitted, results live in memory and die with the daemon.")

let workers_arg =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"N"
           ~doc:"Simulation worker domains (default: $(b,SALAM_DOMAINS), else the core count, \
                 minus one).")

let hw_db_arg =
  Arg.(value & opt_all file []
       & info [ "hw-db" ] ~docv:"FILE"
           ~doc:"Load a hardware characterization database (repeatable); clients may then \
                 request points measured under it. The built-in 40 nm database is always \
                 available.")

let serve_cmd =
  let doc = "Run the daemon in the foreground until SIGINT/SIGTERM or a shutdown request." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ socket_arg $ store_arg $ workers_arg $ hw_db_arg)

let ping_cmd =
  let doc = "Round-trip a ping and print the latency." in
  Cmd.v (Cmd.info "ping" ~doc) Term.(const run_ping $ socket_arg)

let stats_cmd =
  let doc = "Print the daemon's counters." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ socket_arg)

let stop_cmd =
  let doc = "Gracefully stop the daemon (drains in-flight simulations first)." in
  Cmd.v (Cmd.info "stop" ~doc) Term.(const run_stop $ socket_arg)

let cmd =
  let doc = "persistent DSE simulation server with a result store and in-flight dedup" in
  Cmd.group (Cmd.info "salam_served" ~version:"1.0.0" ~doc)
    [ serve_cmd; ping_cmd; stats_cmd; stop_cmd ]

let () = exit (Cmd.eval cmd)
