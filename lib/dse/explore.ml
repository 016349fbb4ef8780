type target = {
  workload_id : Point.t -> string;
  build : Point.t -> Salam_workloads.Workload.t;
  unroll_trips : int option;
}

let gemm_target ?(n = 16) () =
  {
    workload_id =
      (fun (p : Point.t) ->
        (* runs for every point the daemon fingerprints: [^] with
           [string_of_int] costs [Explore.fingerprint] 0.62 us against
           0.41 us this way *)
        let b = Buffer.create 32 in
        let s = Jsonl.To_buffer b in
        Jsonl.add_string s "gemm_ncubed_n";
        Jsonl.add_int s n;
        Jsonl.add_string s "_u";
        Jsonl.add_int s p.Point.unroll;
        Jsonl.add_string s "_j";
        Jsonl.add_int s p.Point.junroll;
        Buffer.contents b);
    build =
      (fun (p : Point.t) ->
        Salam_workloads.Gemm.workload ~n ~unroll:p.Point.unroll ~junroll:p.Point.junroll ());
    unroll_trips = Some n;
  }

let suite_target name =
  match Salam_workloads.Suite.by_name name with
  | Some w ->
      Ok
        {
          workload_id = (fun _ -> w.Salam_workloads.Workload.name);
          build = (fun _ -> w);
          unroll_trips = None;
        }
  | None -> Error (Printf.sprintf "unknown workload %s" name)

(* Why an unroll factor cannot unroll loops of [trips] iterations: a
   factor of 0 lowers as 1 and one past [trips] unrolls fully as [trips]
   does (one design under two fingerprints), one that does not divide
   [trips] runs past the loop's end, and a target with no such loops
   would simulate any factor as 1. *)
let unroll_rule ~trips v =
  if v < 1 then Some "must be at least 1"
  else
    match trips with
    | None -> if v = 1 then None else Some "applies to the gemm target only"
    | Some trips ->
        if trips mod v = 0 then None
        else Some (Printf.sprintf "must divide the loop's %d iterations" trips)

(* Every knob in the range Point.to_config elaborates to hardware, and
   one accepted point per design (a negative FU limit caps nothing, as 0
   does). The Ok path allocates nothing beyond the profile lookup. *)
let check target (p : Point.t) =
  let out_of_range key v rule = Error (key, Printf.sprintf "%s=%d: %s" key v rule) in
  let trips = target.unroll_trips in
  match (unroll_rule ~trips p.Point.unroll, unroll_rule ~trips p.Point.junroll) with
  | Some rule, _ -> out_of_range "unroll" p.Point.unroll rule
  | None, Some rule -> out_of_range "junroll" p.Point.junroll rule
  | None, None -> (
      if p.Point.fu_limit < 0 then
        out_of_range "fu_limit" p.Point.fu_limit "must be at least 0 (0 = unconstrained)"
      else if not (Float.is_finite p.Point.clock_mhz && p.Point.clock_mhz > 0.) then
        Error
          ( "clock_mhz",
            Printf.sprintf "clock_mhz=%g: must be a positive frequency" p.Point.clock_mhz )
      else
        match p.Point.memory with
        | Point.Spm when p.Point.read_ports < 1 ->
            out_of_range "read_ports" p.Point.read_ports "must be at least 1"
        | Point.Spm when p.Point.write_ports < 1 ->
            out_of_range "write_ports" p.Point.write_ports "must be at least 1"
        | Point.Spm when p.Point.banks < 1 ->
            out_of_range "banks" p.Point.banks "must be at least 1"
        | Point.Cache
          when p.Point.cache_bytes <= 0 || p.Point.cache_bytes mod Point.cache_set_bytes <> 0 ->
            out_of_range "cache_bytes" p.Point.cache_bytes
              (Printf.sprintf "must be a positive multiple of %d (64-byte lines, 4 ways)"
                 Point.cache_set_bytes)
        | Point.Spm | Point.Cache | Point.Dram -> (
            (* a point naming a database this process has not loaded
               fails loudly, rather than being answered under a
               different table *)
            match Point.resolve_profile p with
            | Ok _ -> Ok ()
            | Error e -> Error ("hw_db", e)))

(* the CLI flag that sets each knob [check] can refuse, spelled as
   salam_dse and salam_sim both take it *)
let flag_of_key = function
  | "read_ports" -> "--ports"
  | "write_ports" -> "--write-ports"
  | "banks" -> "--banks"
  | "cache_bytes" -> "--cache-size"
  | "fu_limit" -> "--fu"
  | "unroll" -> "--unroll"
  | "junroll" -> "--junroll"
  | "clock_mhz" -> "--clock"
  | _ -> "--hw-db/--cycle-time"

exception Invalid_point of string * string

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
  derived : int;
  candidates : int;
  snapshots : int;
}

let summary_line r ~store =
  Printf.sprintf
    "[dse] candidates=%d evaluated=%d cache_hits=%d simulated=%d front=%d snapshots=%d \
     derived=%d store=%s"
    r.candidates r.evaluated r.cache_hits r.simulated (List.length r.front) r.snapshots
    r.derived
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

(* Fast-forwarded (or multi-invocation) measurements cover a different
   epoch than plain ones, so they get their own fingerprint identity —
   a store can hold both without collision. *)
let identity ~workload ~invocations ~fast_forward =
  let id = if invocations = 1 then workload else workload ^ "#inv" ^ string_of_int invocations in
  match fast_forward with None -> id | Some k -> id ^ "#ff" ^ string_of_int k

(* --- the measure step --------------------------------------------------- *)

type plan = { target : target; invocations : int; fast_forward : int option }

let fingerprint plan p =
  let workload =
    identity ~workload:(plan.target.workload_id p) ~invocations:plan.invocations
      ~fast_forward:plan.fast_forward
  in
  Point.fingerprint ~workload p

type job = {
  j_fp : int64;
  j_point : Point.t;
  j_identity : string;  (** measured fingerprint identity *)
  j_config : Salam.Config.t;
  j_workload : Salam_workloads.Workload.t;
  j_invocations : int;
  j_fast_forward : int option;
  j_snap_key : string;
      (** workload identity, memory kind and roadmark: all a warm-up
          snapshot is shaped by, so every timing knob shares one *)
}

let job plan p =
  let workload = plan.target.workload_id p in
  let j_identity =
    identity ~workload ~invocations:plan.invocations ~fast_forward:plan.fast_forward
  in
  {
    j_fp = Point.fingerprint ~workload:j_identity p;
    j_point = p;
    j_identity;
    j_config = Point.to_config p;
    j_workload = plan.target.build p;
    j_invocations = plan.invocations;
    j_fast_forward = plan.fast_forward;
    j_snap_key =
      (workload ^ "|" ^ Point.memory_kind_to_string p.Point.memory
      ^ match plan.fast_forward with Some k -> "|ff" ^ string_of_int k | None -> "");
  }

let job_fp j = j.j_fp

let warm_up j ~roadmark = Salam.warm_up ~config:j.j_config ~invocations:roadmark j.j_workload

let sim_job ~snapshot j =
  let from =
    Option.map
      (fun roadmark -> snapshot j.j_snap_key (fun () -> warm_up j ~roadmark))
      j.j_fast_forward
  in
  Salam.job ~invocations:j.j_invocations ?from j.j_config j.j_workload

(* Jobs that differ only in their FU cap form a group: one run of the
   group's loosest member (no cap, else the largest) answers every
   tighter cap it never reached ({!Salam.derive}, which holds the
   exactness argument). The loosest members run as one batch across the
   domains, the members a cap would bind as a second. *)
let measure ?domains ~snapshot jobs =
  let simulate = function
    | [] -> []
    | js -> Salam.simulate_jobs ?domains (List.map (sim_job ~snapshot) js)
  in
  let group j = (j.j_identity, { j.j_point with Point.fu_limit = 0 }) in
  let loosest = Hashtbl.create 16 in
  List.iter
    (fun j ->
      let cap = j.j_point.Point.fu_limit in
      match Hashtbl.find_opt loosest (group j) with
      | Some l when l.j_point.Point.fu_limit = 0 || (cap <> 0 && cap <= l.j_point.Point.fu_limit)
        ->
          ()
      | Some _ | None -> Hashtbl.replace loosest (group j) j)
    jobs;
  let leaders = List.filter (fun j -> Hashtbl.find loosest (group j) == j) jobs in
  let runs = Hashtbl.create 16 in
  let keep js rs = List.iter2 (fun j r -> Hashtbl.replace runs j.j_fp r) js rs in
  keep leaders (simulate leaders);
  let derived = ref 0 in
  List.iter
    (fun j ->
      if not (Hashtbl.mem runs j.j_fp) then
        let leader = Hashtbl.find runs (Hashtbl.find loosest (group j)).j_fp in
        match Salam.derive ~config:j.j_config j.j_workload leader with
        | Some r ->
            incr derived;
            Hashtbl.replace runs j.j_fp r
        | None -> ())
    jobs;
  let refused = List.filter (fun j -> not (Hashtbl.mem runs j.j_fp)) jobs in
  keep refused (simulate refused);
  ( List.map
      (fun j ->
        let m =
          Measurement.of_result ~workload:j.j_identity ~point:j.j_point (Hashtbl.find runs j.j_fp)
        in
        assert (m.Measurement.fp = j.j_fp);
        m)
      jobs,
    !derived )

(* --- the sweep evaluator ------------------------------------------------ *)

type evaluator = {
  store : Store_shard.t option;
  domains : int option;
  plan : plan;
  remote : (Point.t list -> (Measurement.t * string) list) option;
      (** when set, batches are answered by a remote evaluator (the
          salam_served daemon) instead of the store + local simulation *)
  snapshots : (string, Salam.snapshot) Hashtbl.t;
      (** interpret-once/simulate-many, keyed by {!job}'s snapshot key *)
  mutable warmed : int;
  mutable hits : int;
  mutable sims : int;
  mutable derived : int;
  mutable acc : Measurement.t list;  (** newest first *)
  evaluated : (int64, unit) Hashtbl.t;
}

(* warm up, across the sweep's domains, each snapshot the jobs need and
   the table lacks: one per key, from the first job that needs it *)
let warm_up_missing ev ~roadmark jobs =
  let missing =
    List.fold_left
      (fun acc j ->
        if Hashtbl.mem ev.snapshots j.j_snap_key || List.mem_assoc j.j_snap_key acc then acc
        else (j.j_snap_key, j) :: acc)
      [] jobs
    |> List.rev
  in
  let snapshots =
    Salam.parallel_map ?domains:ev.domains (fun (_, j) -> warm_up j ~roadmark) missing
  in
  List.iter2
    (fun (key, _) s ->
      ev.warmed <- ev.warmed + 1;
      Hashtbl.add ev.snapshots key s)
    missing snapshots

let record ev ~fp m =
  Hashtbl.replace ev.evaluated fp ();
  ev.acc <- m :: ev.acc;
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
      let fp = fingerprint ev.plan p in
      if m.Measurement.fp <> fp then
        failwith
          (Printf.sprintf "Explore: server answered fingerprint %s for requested %s"
             (Point.fingerprint_hex m.Measurement.fp)
             (Point.fingerprint_hex fp));
      if served = "hit" then ev.hits <- ev.hits + 1 else ev.sims <- ev.sims + 1;
      record ev ~fp m)
    points answers

(* evaluate a batch of points: store lookups first, then one
   domain-parallel simulation batch for the misses *)
let evaluate_local ev points =
  let cached =
    List.map
      (fun p ->
        let fp = fingerprint ev.plan p in
        match ev.store with
        | Some s -> (p, fp, Store_shard.find s ~fp)
        | None -> (p, fp, None))
      points
  in
  let jobs =
    List.filter_map (fun (p, _, m) -> if m = None then Some (job ev.plan p) else None) cached
  in
  (* the warm-ups run first, across the domains (memoised per snapshot
     key); the simulations below then share the immutable snapshots *)
  Option.iter (fun roadmark -> warm_up_missing ev ~roadmark jobs) ev.plan.fast_forward;
  let measured, derived =
    measure ?domains:ev.domains ~snapshot:(fun key _ -> Hashtbl.find ev.snapshots key) jobs
  in
  ev.derived <- ev.derived + derived;
  let fresh =
    List.map
      (fun m ->
        (match ev.store with Some s -> Store_shard.add s m | None -> ());
        (m.Measurement.fp, m))
      measured
  in
  List.map
    (fun (_, fp, cached_m) ->
      let m =
        match cached_m with
        | Some m ->
            ev.hits <- ev.hits + 1;
            m
        | None ->
            ev.sims <- ev.sims + 1;
            List.assoc fp fresh
      in
      record ev ~fp m)
    cached

let evaluate ev points =
  match ev.remote with
  | Some eval -> evaluate_remote ev eval points
  | None -> evaluate_local ev points

let seen ev p = Hashtbl.mem ev.evaluated (fingerprint ev.plan p)

let sample rng n xs =
  let arr = Array.of_list xs in
  Salam_sim.Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min n (Array.length arr)))

let run ?store ?domains ?fast_forward ?(invocations = 1) ?remote ~target ~strategy
    spaces =
  if invocations < 1 then invalid_arg "Explore.run: invocations must be at least 1";
  (match fast_forward with
  | Some k when k < 0 || k >= invocations ->
      invalid_arg "Explore.run: fast_forward must satisfy 0 <= roadmark < invocations"
  | Some _ | None -> ());
  let all = Space.enumerate_all spaces in
  List.iter
    (fun p ->
      match check target p with
      | Ok () -> ()
      | Error (key, e) -> raise (Invalid_point (key, e)))
    all;
  let ev =
    {
      store;
      domains;
      plan = { target; invocations; fast_forward };
      remote;
      snapshots = Hashtbl.create 8;
      warmed = 0;
      hits = 0;
      sims = 0;
      derived = 0;
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
              (not (seen ev p))
              && List.exists (fun (f : Measurement.t) -> neighbours f.Measurement.point p) front)
            all
        in
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
    derived = ev.derived;
    candidates = List.length all;
    snapshots = ev.warmed;
  }
