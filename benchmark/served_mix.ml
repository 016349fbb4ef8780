(* served-mix: two clients in a closed loop (DSE callers wait for each
   reply) against a [salam_served serve] daemon with its default worker
   count and an on-disk sharded store. Every point is a GEMM point with
   seed-drawn memory and knobs. About 92% of requests repeat a point the
   client already saw answered (store hits: store, codec, protocol and
   socket); the rest take the next point of one cold list both clients
   walk, so the same cold point is sometimes in flight twice and is
   deduplicated (misses: the engine). *)

module Client = Salam_served.Client
module P = Salam_served.Protocol
module Explore = Salam_dse.Explore
module Space = Salam_dse.Space
module Point = Salam_dse.Point
module Measurement = Salam_dse.Measurement

let cold_share = 0.08

type daemon = { pid : int; sock : string }

type request = { latency : float; hit : bool; traced : bool }

(* One closed-loop client, kept across the phases of the timed part. *)
type client = {
  id : int;
  conn : Client.t;
  rng : Random.State.t;
  mutable pool : Point.t array;  (** points it has seen answered: its warm set *)
  mutable cursor : int;  (** how far it has walked the cold list *)
  mutable sent : int;
  mutable broken : bool;  (** a request raised; the client stops *)
  mutable requests : request list;
  mutable answers : (Point.t * string) list;  (** its cold points and their answers *)
}

(* The [i]th GEMM point of a list: seven in ten on an SPM, two on a
   cache, one straight to DRAM (fixed shares keep the miss cost steady
   across seeds), with seed-drawn knobs; integer clocks over a wide
   range keep the list free of repeats. *)
let draw_point rng ~unroll ~junroll i =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let base =
    {
      Point.default with
      Point.unroll;
      junroll;
      fu_limit = pick [ 0; 2; 4; 8 ];
      clock_mhz = float_of_int (200 + Random.State.int rng 801);
    }
  in
  Point.canonical
    (match i mod 10 with
    | 7 | 8 ->
        { base with Point.memory = Point.Cache; cache_bytes = pick [ 512; 1024; 2048; 4096; 8192 ] }
    | 9 -> { base with Point.memory = Point.Dram }
    | _ ->
        Space.spm_balanced
          { base with Point.memory = Point.Spm; read_ports = pick [ 1; 2; 4; 8; 16 ] })

let run (ctx : Run.ctx) =
  let exe = Filename.concat ctx.Run.bin_dir "salam_served.exe" in
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  let n, unroll, junroll = if ctx.Run.quick then (8, 8, 4) else (16, 16, 8) in
  let spec = { P.default_spec with P.gemm_n = n } in
  let target = Explore.gemm_target ~n () in
  let fingerprint p =
    let workload = target.Explore.workload_id p in
    Point.fingerprint p ~workload:(Explore.identity ~workload ~invocations:1 ~fast_forward:None)
  in
  let rng = Stat.rng ctx.Run.seed "served-mix" in
  let warm0 = draw_point rng ~unroll ~junroll 0 in
  let cold =
    let seen = Hashtbl.create 4096 in
    Hashtbl.add seen (fingerprint warm0) ();
    Array.of_list
      (List.filter
         (fun p ->
           let fp = fingerprint p in
           (not (Hashtbl.mem seen fp)) && (Hashtbl.add seen fp (); true))
         (List.init 6000 (draw_point rng ~unroll ~junroll)))
  in
  let sim c p = Client.sim c ~spec p in
  let start k =
    let sock = Proc.tmp (Printf.sprintf "d%d.sock" k) in
    let pid =
      Proc.spawn ~log:(Proc.tmp (Printf.sprintf "served-%d.log" k)) exe
        [ "serve"; "--socket"; sock; "--store"; Proc.tmp (Printf.sprintf "store-%d" k) ]
    in
    let deadline = Stat.now () +. 30. in
    let rec ping () =
      match Client.with_connection sock Client.ping with
      | () -> ()
      | exception (Client.Protocol_error _ | Unix.Unix_error _) when Stat.now () < deadline ->
          Unix.sleepf 0.002;
          ping ()
    in
    ping ();
    ignore (Client.with_connection sock (fun c -> sim c warm0));
    { pid; sock }
  in
  let shutdown d =
    (try Client.with_connection d.sock Client.shutdown
     with Client.Protocol_error _ | Unix.Unix_error _ -> ());
    Proc.finish d.pid
  in
  (* set-up: spawn the daemon on a fresh store, wait for its first pong,
     answer one warm-up request *)
  let d = Run.setup ~reps:10 ~discard:shutdown ctx start in
  Fun.protect ~finally:(fun () -> shutdown d) @@ fun () ->
  let requests_per_client = Run.count ctx ~full:2000 ~quick:20 in
  (* The clients pause together every [requests_per_client / phases]
     requests. With both of them and the daemon idle, the ledger samples
     the machine's speed and now and then times another set-up (see
     [Run.between]). *)
  let phases = if ctx.Run.quick then 1 else 20 in
  let clients =
    List.init 2 (fun id ->
        {
          id;
          conn = Client.connect d.sock;
          rng = Stat.rng ctx.Run.seed ("served-mix-client", id);
          pool = [| warm0 |];
          cursor = 0;
          sent = 0;
          broken = false;
          requests = [];
          answers = [];
        })
  in
  Fun.protect ~finally:(fun () -> List.iter (fun cl -> Client.close cl.conn) clients) @@ fun () ->
  let request cl =
    (* each client opens on the same cold point, so the two race for it
       from the start *)
    let is_cold =
      (cl.sent = 0 || Random.State.float cl.rng 1. < cold_share) && cl.cursor < Array.length cold
    in
    let p =
      if is_cold then begin
        cl.cursor <- cl.cursor + 1;
        cold.(cl.cursor - 1)
      end
      else cl.pool.(Random.State.int cl.rng (Array.length cl.pool))
    in
    let traced = ctx.Run.trace && cl.sent mod 2 = 1 in
    let req = (cl.id * 1_000_000) + cl.sent in
    let (served, m), latency =
      Stat.time (fun () ->
          Span.root ~req traced "served-mix.request" (fun sp ->
              Span.span ~req sp "client.sim" (fun _ -> sim cl.conn p)))
    in
    Report.ops 1;
    cl.requests <- { latency; hit = served = "hit"; traced } :: cl.requests;
    if m.Measurement.fp <> fingerprint p || not m.Measurement.correct then
      Report.fail "served-mix: wrong answer for %s" (Point.to_string p);
    if is_cold then begin
      cl.pool <- Array.append cl.pool [| p |];
      cl.answers <- (p, Measurement.to_line m) :: cl.answers
    end;
    cl.sent <- cl.sent + 1
  in
  let phase upto cl () =
    try
      while (not cl.broken) && cl.sent < upto do
        request cl
      done
    with e ->
      cl.broken <- true;
      Report.fail "served-mix: client %d: %s" cl.id (Printexc.to_string e)
  in
  let wall = ref 0. and words = ref 0. and majors = ref 0 in
  for k = 0 to phases - 1 do
    Run.between k phases;
    let upto = (k + 1) * requests_per_client / phases in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    (* both client threads run in this domain, so its allocation counter
       covers the client side of every request *)
    let ((), w), t =
      Stat.time (fun () ->
          Stat.allocated (fun () ->
              List.iter Thread.join
                (List.map (fun cl -> Thread.create (phase upto cl) ()) clients)))
    in
    wall := !wall +. t;
    words := !words +. w;
    majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - majors0)
  done;
  let requests = List.concat_map (fun cl -> cl.requests) clients in
  let answers = List.sort_uniq compare (List.concat_map (fun cl -> cl.answers) clients) in
  let cold_points = List.fold_left (fun m cl -> max m cl.cursor) 0 clients in
  let ops = List.map (fun r -> { Run.traced = r.traced; seconds = r.latency }) requests in
  Run.end_to_end ~busy_s:!wall ~ops
    ~latency_s:(Stat.minimum (Run.untraced ops))
    ~items:(float_of_int (List.length requests))
    ~rss_mb:(Option.value ~default:nan (Proc.vm_hwm_mb d.pid)) ();
  Run.gc_per_op ~ops:(List.length requests) !words !majors;
  (* the timed part's answers against local simulations of the same
     points, byte for byte *)
  let check_rng = Stat.rng ctx.Run.seed "served-mix-check" in
  let sample = Stat.shuffle check_rng answers in
  List.iteri
    (fun i (p, line) ->
      if i < (if ctx.Run.quick then 2 else 10) then begin
        Report.ops 1;
        let line = if ctx.Run.plant && i = 0 then line ^ " " else line in
        let report =
          Explore.run ~domains:1 ~target ~strategy:Explore.Exhaustive [ Space.create ~base:p [] ]
        in
        match report.Explore.measurements with
        | [ m ] when Measurement.to_line m = line -> ()
        | _ ->
            Report.fail "served-mix: served answer for %s differs from a local simulation"
              (Point.to_string p)
      end)
    sample;
  let latencies hit =
    List.filter_map (fun r -> if r.hit = hit && not r.traced then Some r.latency else None) requests
  in
  (* the hit p99 moved by more than a tenth between otherwise agreeing
     runs, so the tail reported is at most p95 *)
  let describe name unit scale xs =
    if xs <> [] then begin
      Report.sample (name ^ "_s") xs;
      let n = List.length xs in
      Report.detail ~n (name ^ "_" ^ unit ^ "_p50") unit (Stat.median xs *. scale);
      let q = Float.min 0.95 (Stat.tail_quantile n) in
      Report.detail ~n
        (Printf.sprintf "%s_%s_%s" name unit (Stat.percentile_name q))
        unit
        (Stat.quantile q xs *. scale)
    end
  in
  describe "served.hit" "us" 1e6 (latencies true);
  describe "served.miss" "ms" 1e3 (latencies false);
  let st = Client.with_connection d.sock Client.stats in
  Report.metric "served.hits" (float_of_int st.P.st_hits);
  Report.metric "served.misses" (float_of_int st.P.st_misses);
  Report.metric "served.deduped" (float_of_int st.P.st_deduped);
  Report.metric "served.simulated" (float_of_int st.P.st_simulated);
  (* every distinct point this daemon was asked for: the warm-up point
     and the walked prefix of the cold list *)
  let sims_per_point = float_of_int st.P.st_simulated /. float_of_int (1 + cold_points) in
  Report.metric "served.sims_per_cold_point" sims_per_point;
  if sims_per_point <> 1. then
    Report.fail "served-mix: %d simulations for %d distinct points" st.P.st_simulated
      (1 + cold_points);
  if ctx.Run.trace then begin
    Run.trace_summary ~workload:"served-mix" ~ops (Span.all ());
    Span.root true "probe" (fun sp ->
        let reps = Run.probe_reps ctx in
        let w = Salam_workloads.Gemm.workload ~n ~unroll ~junroll () in
        ignore (Probe.kernels ~parent:sp ~reps [ { Probe.w; config = Salam.Config.default } ]);
        Probe.store ~parent:sp ~reps
          (List.filter_map (fun (_, line) -> Result.to_option (Measurement.of_line line)) answers);
        let ping =
          Span.span sp "served.ping" (fun _ ->
              Client.with_connection d.sock (fun c ->
                  Probe.per_call ~reps (fun () -> Client.ping c)))
        in
        Report.detail ~n:reps "served.ping_us" "us" (ping *. 1e6);
        let hit = Stat.median (latencies true) in
        Report.metric "served.dispatch_frac" ((hit -. ping) /. hit))
  end
