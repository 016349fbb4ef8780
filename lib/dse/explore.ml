module Trace = Salam_obs.Trace

type target = {
  workload_id : Point.t -> string;
  build : Point.t -> Salam_workloads.Workload.t;
}

let gemm_target ?(n = 16) () =
  {
    workload_id =
      (fun (p : Point.t) ->
        Printf.sprintf "gemm_ncubed_n%d_u%d_j%d" n p.Point.unroll p.Point.junroll);
    build =
      (fun (p : Point.t) ->
        Salam_workloads.Gemm.workload ~n ~unroll:p.Point.unroll ~junroll:p.Point.junroll ());
  }

let suite_target name =
  match Salam_workloads.Suite.by_name name with
  | Some w -> Ok { workload_id = (fun _ -> w.Salam_workloads.Workload.name); build = (fun _ -> w) }
  | None -> Error (Printf.sprintf "unknown workload %s" name)

type strategy =
  | Exhaustive
  | Random of { samples : int; seed : int64 }
  | Pareto_walk of { seeds : int; rounds : int; seed : int64 }

type report = {
  measurements : Measurement.t list;
  front : Measurement.t list;
  dominated : Measurement.t list;
  evaluated : int;
  cache_hits : int;
  simulated : int;
  candidates : int;
  snapshots : int;
}

let summary_line r ~store =
  Printf.sprintf
    "[dse] candidates=%d evaluated=%d cache_hits=%d simulated=%d front=%d snapshots=%d store=%s"
    r.candidates r.evaluated r.cache_hits r.simulated (List.length r.front) r.snapshots
    (match store with
    | Some s -> ( match Store_shard.path s with Some p -> p | None -> "memory")
    | None -> "none")

(* two canonical points are neighbours when exactly one knob differs —
   the mutation move of the Pareto-guided walk *)
let neighbours (a : Point.t) (b : Point.t) =
  let d = ref 0 in
  let test c = if not c then incr d in
  test (a.Point.memory = b.Point.memory);
  test (a.Point.read_ports = b.Point.read_ports);
  test (a.Point.write_ports = b.Point.write_ports);
  test (a.Point.banks = b.Point.banks);
  test (a.Point.cache_bytes = b.Point.cache_bytes);
  test (a.Point.fu_limit = b.Point.fu_limit);
  test (a.Point.unroll = b.Point.unroll);
  test (a.Point.junroll = b.Point.junroll);
  test (a.Point.clock_mhz = b.Point.clock_mhz);
  !d = 1

type evaluator = {
  store : Store_shard.t option;
  trace : Trace.sink option;
  domains : int option;
  target : target;
  invocations : int;
  fast_forward : int option;  (** roadmark: interpreter invocations *)
  remote : (Point.t list -> (Measurement.t * string) list) option;
      (** when set, batches are answered by a remote evaluator (the
          salam_served daemon) instead of the store + local simulation *)
  snapshots : (string, Salam.snapshot) Hashtbl.t;
      (** interpret-once/simulate-many: keyed by workload identity and
          memory kind, the only axes a snapshot is shaped by — every
          timing knob shares one warm-up *)
  mutable warmed : int;
  mutable hits : int;
  mutable sims : int;
  tick_base : int64;  (** tick domain: high 32 bits of every tick *)
  mutable ticks : int64;  (** progress-event tick = evaluation order *)
  mutable acc : Measurement.t list;  (** newest first *)
  evaluated : (int64, unit) Hashtbl.t;
}

(* Fast-forwarded (or multi-invocation) measurements cover a different
   epoch than plain ones, so they get their own fingerprint identity —
   a store can hold both without collision. *)
let identity ~workload ~invocations ~fast_forward =
  let id =
    if invocations = 1 then workload else Printf.sprintf "%s#inv%d" workload invocations
  in
  match fast_forward with None -> id | Some k -> Printf.sprintf "%s#ff%d" id k

let measured_id ev workload =
  identity ~workload ~invocations:ev.invocations ~fast_forward:ev.fast_forward

let snapshot_key ev ~config p = ev.target.workload_id p ^ "|" ^ Salam.Config.memory_name config

(* warm up, across the sweep's domains, each snapshot the (config, point)
   pairs need and the table lacks: one per key, from the first pair
   that needs it *)
let warm_up_missing ev ~roadmark configured =
  let missing =
    List.fold_left
      (fun acc (config, p) ->
        let key = snapshot_key ev ~config p in
        if Hashtbl.mem ev.snapshots key || List.mem_assoc key acc then acc
        else (key, (config, p)) :: acc)
      [] configured
    |> List.rev
  in
  let snapshots =
    Salam.parallel_map ?domains:ev.domains
      (fun (_, (config, p)) -> Salam.warm_up ~config ~invocations:roadmark (ev.target.build p))
      missing
  in
  List.iter2
    (fun (key, _) s ->
      ev.warmed <- ev.warmed + 1;
      Hashtbl.add ev.snapshots key s)
    missing snapshots

let emit_progress ev ~detail args =
  match ev.trace with
  | Some tr ->
      ev.ticks <- Int64.add ev.ticks 1L;
      Trace.emit tr
        ~tick:(Int64.logor ev.tick_base ev.ticks)
        ~comp:"dse" ~cat:Trace.Dse_progress ~detail args
  | None -> ()

let record ev ~detail ~fp m =
  Hashtbl.replace ev.evaluated fp ();
  ev.acc <- m :: ev.acc;
  emit_progress ev ~detail
    [
      ("fp", Trace.S (Point.fingerprint_hex fp));
      ("cycles", Trace.I m.Measurement.cycles);
      ("total_mw", Trace.F m.Measurement.total_mw);
    ];
  m

(* evaluate a batch of points through the remote daemon: the server does
   its own store lookup, in-flight dedup and simulation; this side only
   checks the results are the ones it asked for and keeps the counters *)
let evaluate_remote ev eval points =
  let answers = eval points in
  if List.length answers <> List.length points then
    failwith
      (Printf.sprintf "Explore: server answered %d of %d points"
         (List.length answers) (List.length points));
  List.map2
    (fun p (m, served) ->
      let workload = measured_id ev (ev.target.workload_id p) in
      let fp = Point.fingerprint ~workload p in
      if m.Measurement.fp <> fp then
        failwith
          (Printf.sprintf "Explore: server answered fingerprint %s for requested %s"
             (Point.fingerprint_hex m.Measurement.fp)
             (Point.fingerprint_hex fp));
      let detail = if served = "hit" then "hit" else "sim" in
      if detail = "hit" then ev.hits <- ev.hits + 1 else ev.sims <- ev.sims + 1;
      record ev ~detail ~fp m)
    points answers

(* evaluate a batch of points: store lookups first, then one
   domain-parallel simulation batch for the misses *)
let evaluate_local ev points =
  let keyed =
    List.map
      (fun p ->
        let workload = measured_id ev (ev.target.workload_id p) in
        (p, workload, Point.fingerprint ~workload p))
      points
  in
  let cached =
    List.map
      (fun (p, workload, fp) ->
        match ev.store with
        | Some s -> (p, workload, fp, Store_shard.find s ~fp)
        | None -> (p, workload, fp, None))
      keyed
  in
  let misses = List.filter (fun (_, _, _, m) -> m = None) cached in
  let configured = List.map (fun (p, _, _, _) -> (Point.to_config p, p)) misses in
  (* the warm-ups run first, across the domains (memoised per
     workload/memory-kind key); the simulations below then share the
     immutable snapshots *)
  (match ev.fast_forward with
  | Some roadmark -> warm_up_missing ev ~roadmark configured
  | None -> ());
  let jobs =
    List.map
      (fun (config, p) ->
        let from =
          match ev.fast_forward with
          | None -> None
          | Some _ -> Some (Hashtbl.find ev.snapshots (snapshot_key ev ~config p))
        in
        Salam.job ~invocations:ev.invocations ?from config (ev.target.build p))
      configured
  in
  let fresh =
    if jobs = [] then []
    else
      List.map2
        (fun (p, workload, fp, _) r ->
          let m = Measurement.of_result ~workload ~point:p r in
          assert (m.Measurement.fp = fp);
          (match ev.store with Some s -> Store_shard.add s m | None -> ());
          (fp, m))
        misses
        (Salam.simulate_jobs ?domains:ev.domains jobs)
  in
  List.map
    (fun (_, _, fp, cached_m) ->
      let m, detail =
        match cached_m with
        | Some m ->
            ev.hits <- ev.hits + 1;
            (m, "hit")
        | None ->
            ev.sims <- ev.sims + 1;
            (List.assoc fp fresh, "sim")
      in
      record ev ~detail ~fp m)
    cached

let evaluate ev points =
  match ev.remote with
  | Some eval -> evaluate_remote ev eval points
  | None -> evaluate_local ev points

let seen ev (target : target) p =
  let workload = measured_id ev (target.workload_id p) in
  Hashtbl.mem ev.evaluated (Point.fingerprint ~workload p)

let sample rng n xs =
  let arr = Array.of_list xs in
  Salam_sim.Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min n (Array.length arr)))

let run ?store ?trace ?domains ?fast_forward ?(invocations = 1) ?remote
    ?(tick_domain = 0) ~target ~strategy spaces =
  if invocations < 1 then invalid_arg "Explore.run: invocations must be at least 1";
  (match fast_forward with
  | Some k when k < 0 || k >= invocations ->
      invalid_arg "Explore.run: fast_forward must satisfy 0 <= roadmark < invocations"
  | Some _ | None -> ());
  if tick_domain < 0 || tick_domain > 0x7fffffff then
    invalid_arg "Explore.run: tick_domain must fit in 31 bits";
  let all = Space.enumerate_all spaces in
  let ev =
    {
      store;
      trace;
      domains;
      target;
      invocations;
      fast_forward;
      remote;
      snapshots = Hashtbl.create 8;
      warmed = 0;
      hits = 0;
      sims = 0;
      tick_base = Int64.shift_left (Int64.of_int tick_domain) 32;
      ticks = 0L;
      acc = [];
      evaluated = Hashtbl.create 64;
    }
  in
  (match strategy with
  | Exhaustive -> ignore (evaluate ev all)
  | Random { samples; seed } ->
      ignore (evaluate ev (sample (Salam_sim.Rng.create seed) samples all))
  | Pareto_walk { seeds; rounds; seed } ->
      let rng = Salam_sim.Rng.create seed in
      ignore (evaluate ev (sample rng seeds all));
      let round = ref 0 in
      let continue_ = ref true in
      while !continue_ && !round < rounds do
        incr round;
        let front = Pareto.front (List.rev ev.acc) in
        let candidates =
          List.filter
            (fun p ->
              (not (seen ev target p))
              && List.exists (fun (f : Measurement.t) -> neighbours f.Measurement.point p) front)
            all
        in
        emit_progress ev ~detail:"round"
          [
            ("round", Trace.I (Int64.of_int !round));
            ("front", Trace.I (Int64.of_int (List.length front)));
            ("mutations", Trace.I (Int64.of_int (List.length candidates)));
          ];
        if candidates = [] then continue_ := false else ignore (evaluate ev candidates)
      done);
  let measurements = List.rev ev.acc in
  let front, dominated = Pareto.partition measurements in
  {
    measurements;
    front;
    dominated;
    evaluated = ev.hits + ev.sims;
    cache_hits = ev.hits;
    simulated = ev.sims;
    candidates = List.length all;
    snapshots = ev.warmed;
  }
