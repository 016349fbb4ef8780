open Salam_soc
module Engine = Salam_engine.Engine
module W = Salam_workloads.Workload
module Cacti = Salam_hw.Cacti_lite

module Config = struct
  type memory =
    | Spm of { read_ports : int; write_ports : int; banks : int; latency : int }
    | Cache of { size : int; line_bytes : int; ways : int; hit_latency : int }
    | Dram_direct

  type t = {
    clock_mhz : float;
    memory : memory;
    fu_limits : (Salam_hw.Fu.cls * int) list;
    engine : Engine.config;
    seed : int64;
    hw : Salam_hw.Profile.t;
        (** hardware characterization the datapath elaborates under;
            loadable from a salam_config database *)
  }

  let default =
    {
      clock_mhz = 500.0;
      memory = Spm { read_ports = 2; write_ports = 1; banks = 2; latency = 1 };
      fu_limits = [];
      engine = Engine.default_config;
      seed = 42L;
      hw = Salam_hw.Profile.default_40nm;
    }

  let memory_name t =
    match t.memory with Spm _ -> "spm" | Cache _ -> "cache" | Dram_direct -> "dram"
end

type power_breakdown = {
  dynamic_fu_mw : float;
  dynamic_reg_mw : float;
  dynamic_mem_read_mw : float;
  dynamic_mem_write_mw : float;
  static_fu_mw : float;
  static_reg_mw : float;
  static_mem_mw : float;
}

let total_mw p =
  p.dynamic_fu_mw +. p.dynamic_reg_mw +. p.dynamic_mem_read_mw +. p.dynamic_mem_write_mw
  +. p.static_fu_mw +. p.static_reg_mw +. p.static_mem_mw

let datapath_mw p = p.dynamic_fu_mw +. p.dynamic_reg_mw +. p.static_fu_mw +. p.static_reg_mw

type mem_report = { cacti : Cacti.result; reads : int; writes : int }

type result = {
  name : string;
  cycles : int64;
  seconds : float;
  correct : bool;
  ret : Salam_ir.Bits.t option;
  bases : int64 array;
  stats : Engine.run_stats;
  power : power_breakdown;
  area_um2 : float;
  fu_allocated : (Salam_hw.Fu.cls * int) list;
  fu_peak : (Salam_hw.Fu.cls * int) list;
  mem_report : mem_report option;
  hw : Salam_hw.Profile.t;  (** the profile this run elaborated under *)
  spm_accesses : (int * int) option;
  cache_hits_misses : (int * int) option;
  wall_seconds : float;
  kernel_events : int;
  sim_stats : (string * float) list;
}

let round_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 256

let model_epoch = 3

(* --- fast-forward machinery -------------------------------------------- *)

let roadmark_name k = if k = 0 then "start" else Printf.sprintf "after-invocation-%d" k

type snapshot = {
  snap_workload : string;
  snap_memory : string;  (* "spm" | "cache" | "dram" *)
  snap_invocations : int;
  snap_bases : int64 array;
  snap_image : Salam_ir.Memory.snapshot;
  snap_tick : int64;
}

type probe = {
  pr_tick : int64;
  pr_sim_stats : (string * float) list;
  pr_trace_events : int;
}

type built = {
  b_sys : System.t;
  b_acc : Accelerator.t;
  b_spm : Salam_mem.Spm.t option;
  b_cache : Salam_mem.Cache.t option;
  b_bases : int64 array;
}

(* Assemble the standard single-accelerator topology. Construction is
   fully determined by (workload shape, config), including the backing
   allocator's state — which is what lets a snapshot taken on one system
   restore into a freshly built twin: the address map reproduces
   exactly. *)
let build ~config ?trace ?func (w : W.t) =
  let func = match func with Some f -> f | None -> W.compile w in
  let sys = System.create ?trace () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"cluster0" ~clock_mhz:config.Config.clock_mhz () in
  let acc =
    Accelerator.create sys ~name:w.W.name ~clock_mhz:config.Config.clock_mhz
      ~profile:config.Config.hw ~fu_limits:config.Config.fu_limits
      ~engine_config:config.Config.engine func
  in
  Cluster.add_accelerator cluster acc;
  let buffer_bytes = W.total_buffer_bytes w in
  let spm = ref None in
  let cache = ref None in
  let bases =
    match config.Config.memory with
    | Config.Spm { read_ports; write_ports; banks; latency } ->
        let spm_size = round_pow2 (buffer_bytes + (64 * List.length w.W.buffers)) in
        let base, s =
          Cluster.add_private_spm cluster acc ~size:spm_size
            ~config:(fun c ->
              { c with Salam_mem.Spm.read_ports; write_ports; banks; latency })
            ()
        in
        spm := Some s;
        (* carve the workload buffers out of the SPM region *)
        let next = ref base in
        Array.of_list
          (List.map
             (fun (_, bytes) ->
               let b = !next in
               next := Int64.add !next (Int64.of_int ((bytes + 63) / 64 * 64));
               b)
             w.W.buffers)
    | Config.Cache { size; line_bytes; ways; hit_latency } ->
        let c =
          Cluster.add_private_cache cluster acc ~size
            ~config:(fun cfg ->
              { cfg with Salam_mem.Cache.line_bytes; ways; hit_latency })
            ()
        in
        cache := Some c;
        W.alloc_buffers w (System.backing sys)
    | Config.Dram_direct -> W.alloc_buffers w (System.backing sys)
  in
  { b_sys = sys; b_acc = acc; b_spm = !spm; b_cache = !cache; b_bases = bases }

(* A kernel-invocation boundary, made into a synchronization point:
   advance the idle kernel to the next hyperperiod multiple (every clock
   domain's phase becomes zero) and flush the cache (tags are excluded
   from snapshots, so both the restored and the uninterrupted system
   must go cold here). Returns the aligned tick. Single-invocation runs
   without probes never reach this, so their timing is untouched. *)
let boundary b =
  let tick = System.align b.b_sys in
  (match b.b_cache with Some c -> Salam_mem.Cache.flush c | None -> ());
  tick

let sim_stats_of b =
  List.rev
    (Salam_sim.Stats.fold (System.stats b.b_sys) ~init:[] ~f:(fun acc ~path v ->
         (path, v) :: acc))

let check_from ~config ~invocations (w : W.t) (snap : snapshot) =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if snap.snap_workload <> w.W.name then
    fail "simulate: snapshot is for workload %s, not %s" snap.snap_workload w.W.name;
  let kind = Config.memory_name config in
  if snap.snap_memory <> kind then
    fail "simulate: snapshot was taken on a %s memory attachment, this config uses %s"
      snap.snap_memory kind;
  if snap.snap_invocations >= invocations then
    fail "simulate: snapshot already covers %d invocation(s), %d requested"
      snap.snap_invocations invocations

(* The result terms the functional-unit allocation decides, and the only
   ones: the instantiated units, their leakage and the datapath's area
   (units plus registers). [simulate] and [derive] both take them from
   here. *)
type allocation = {
  al_units : (Salam_hw.Fu.cls * int) list;
  al_fu_mw : float;
  al_area_um2 : float;
}

let allocation dp =
  {
    al_units = Salam_hw.Fu.Map.bindings dp.Salam_cdfg.Datapath.fu_alloc;
    al_fu_mw = Salam_cdfg.Datapath.fu_leakage_mw dp;
    al_area_um2 = Salam_cdfg.Datapath.static_area_um2 dp;
  }

(* The one power computation, for [simulate] and [derive]: the seven
   terms and the area, from the allocation, the run's energy counters,
   the register leakage and the local memory's report. *)
let power a (s : Engine.run_stats) ~reg_leak_mw mem ~seconds =
  let to_mw pj = if seconds <= 0.0 then 0.0 else pj *. 1e-12 /. seconds *. 1e3 in
  let mem_term f = match mem with Some m -> f m | None -> 0.0 in
  ( {
      dynamic_fu_mw = to_mw s.Engine.dynamic_fu_energy_pj;
      dynamic_reg_mw = to_mw s.Engine.dynamic_reg_energy_pj;
      dynamic_mem_read_mw = mem_term (fun m -> to_mw (float_of_int m.reads *. m.cacti.read_energy_pj));
      dynamic_mem_write_mw =
        mem_term (fun m -> to_mw (float_of_int m.writes *. m.cacti.write_energy_pj));
      static_fu_mw = a.al_fu_mw;
      static_reg_mw = reg_leak_mw;
      static_mem_mw = mem_term (fun m -> m.cacti.leakage_mw);
    },
    a.al_area_um2 +. mem_term (fun m -> m.cacti.area_um2) )

(* The energy oracle recomputes each term from its counts: the FU term
   from the per-class issue counts, the memory terms from the device's
   reads and writes. *)
let check_energy r =
  let agree name reported pj =
    let expected = if r.seconds <= 0.0 then 0.0 else pj /. r.seconds *. 1e-9 in
    if Float.abs (reported -. expected) > 1e-9 *. Float.max (Float.abs reported) (Float.abs expected)
    then
      raise
        (Engine.Invariant_violation
           (Printf.sprintf "energy oracle: %s is %g mW, its counters give %g mW" name reported
              expected))
  in
  let count n pj = float_of_int n *. pj in
  agree "dynamic_fu_mw" r.power.dynamic_fu_mw
    (List.fold_left
       (fun acc (cls, n) -> acc +. count n (Salam_hw.Profile.spec r.hw cls).dynamic_pj)
       0.0 r.stats.Engine.issued_by_class);
  let read_pj, write_pj =
    match r.mem_report with
    | Some m -> (count m.reads m.cacti.read_energy_pj, count m.writes m.cacti.write_energy_pj)
    | None -> (0.0, 0.0)
  in
  agree "dynamic_mem_read_mw" r.power.dynamic_mem_read_mw read_pj;
  agree "dynamic_mem_write_mw" r.power.dynamic_mem_write_mw write_pj

let simulate ?(config = Config.default) ?trace ?func ?(invocations = 1) ?from ?probe ?inspect
    (w : W.t) =
  let wall_start = Unix.gettimeofday () in
  if invocations < 1 then invalid_arg "simulate: invocations must be at least 1";
  Option.iter (check_from ~config ~invocations w) from;
  let b = build ~config ?trace ?func w in
  let sys = b.b_sys and acc = b.b_acc and bases = b.b_bases in
  let first =
    match from with
    | None ->
        w.W.init (Salam_sim.Rng.create config.Config.seed) (System.backing sys) bases;
        1
    | Some snap ->
        if snap.snap_bases <> bases then
          invalid_arg
            ("simulate: snapshot buffer layout does not match this system (workload shape \
              changed?): " ^ w.W.name);
        System.restore sys snap.snap_image ~tick:snap.snap_tick;
        snap.snap_invocations + 1
  in
  let ret = ref None in
  for k = first to invocations do
    let finished = ref false in
    Accelerator.launch acc ~args:(W.args w ~bases) ~on_done:(fun r ->
        ret := r;
        finished := true);
    ignore (System.run sys);
    if not !finished then
      failwith (Printf.sprintf "simulate: %s did not finish (invocation %d)" w.W.name k);
    let at_probe = match probe with Some (pk, _) -> pk = k | None -> false in
    if k < invocations || at_probe then begin
      let tick = boundary b in
      match probe with
      | Some (pk, f) when pk = k ->
          f
            {
              pr_tick = tick;
              pr_sim_stats = sim_stats_of b;
              pr_trace_events =
                (match trace with Some s -> Salam_obs.Trace.count s | None -> 0);
            }
      | _ -> ()
    end
  done;
  (match b.b_cache with
  | Some c when config.Config.engine.Engine.check -> (
      match Salam_mem.Cache.invariant_errors c with
      | [] -> ()
      | errs ->
          raise
            (Engine.Invariant_violation
               ("cache invariants violated: " ^ String.concat "; " errs)))
  | Some _ | None -> ());
  (match inspect with Some f -> f (System.backing sys) | None -> ());
  let correct = w.W.check (System.backing sys) bases in
  let stats = Accelerator.stats acc in
  let seconds =
    Salam_sim.Clock.seconds_of_cycles (Accelerator.clock acc) stats.Engine.cycles
  in
  let mem_report =
    let open Salam_mem in
    match (b.b_spm, b.b_cache) with
    | Some s, _ -> Some { cacti = Spm.cacti s; reads = Spm.reads s; writes = Spm.writes s }
    | None, Some c -> Some { cacti = Cache.cacti c; reads = Cache.reads c; writes = Cache.writes c }
    | None, None -> None
  in
  let dp = Accelerator.datapath acc in
  let a = allocation dp in
  let power, area_um2 =
    power a stats ~reg_leak_mw:(Salam_cdfg.Datapath.reg_leakage_mw dp) mem_report ~seconds
  in
  let engine = Accelerator.engine acc in
  let r =
    {
      name = w.W.name;
      cycles = stats.Engine.cycles;
      seconds;
      correct;
      ret = !ret;
      bases;
      stats;
      power;
      area_um2;
      fu_allocated = a.al_units;
      fu_peak =
        List.filter_map
          (fun cls ->
            match Engine.fu_peak engine cls with 0 -> None | n -> Some (cls, n))
          Salam_hw.Fu.all;
      mem_report;
      hw = config.Config.hw;
      spm_accesses = Option.map (fun s -> (Salam_mem.Spm.reads s, Salam_mem.Spm.writes s)) b.b_spm;
      cache_hits_misses =
        Option.map (fun c -> (Salam_mem.Cache.hits c, Salam_mem.Cache.misses c)) b.b_cache;
      wall_seconds = Unix.gettimeofday () -. wall_start;
      kernel_events = Salam_sim.Kernel.events_executed (System.kernel sys);
      sim_stats = sim_stats_of b;
    }
  in
  if config.Config.engine.Engine.check then check_energy r;
  r

(* A run under a tighter allocation, answered from a looser run's
   counters. Let loose >= tight for each class (the run's allocation
   against [config]'s). The allocation reaches the engine only through
   [units_in_use t i < units] before an FU issue, so the two runs stay
   identical as long as each such compare comes out the same:
   - an issue that succeeded in the loose run had used + 1 <= peak <=
     tight, so it succeeds under the tight allocation too;
   - a refusal in the loose run had used >= loose >= tight, so it is
     refused too; [cap_refused], and with it every sleep decision, is
     therefore identical;
   - nothing else reads the allocation during a run.
   Only the allocation's own terms change. [config] must differ from the
   loose run's config in [fu_limits] only. *)
let derive ~config (w : W.t) r =
  let wall_start = Unix.gettimeofday () in
  let dp =
    Salam_cdfg.Datapath.build ~profile:config.Config.hw ~limits:config.Config.fu_limits
      (W.compile w)
  in
  let a = allocation dp in
  let units list cls = Option.value ~default:0 (List.assoc_opt cls list) in
  if
    List.for_all
      (fun (cls, tight) -> units r.fu_peak cls <= tight && tight <= units r.fu_allocated cls)
      a.al_units
  then
    let power, area_um2 =
      power a r.stats ~reg_leak_mw:(Salam_cdfg.Datapath.reg_leakage_mw dp) r.mem_report
        ~seconds:r.seconds
    in
    Some
      {
        r with
        power;
        area_um2;
        fu_allocated = a.al_units;
        wall_seconds = Unix.gettimeofday () -. wall_start;
      }
  else None

(* --- snapshots: interpreter warm-up and detailed capture --------------- *)

let make_snapshot ~config ~invocations (w : W.t) b =
  let image, tick = System.snapshot b.b_sys in
  {
    snap_workload = w.W.name;
    snap_memory = Config.memory_name config;
    snap_invocations = invocations;
    snap_bases = b.b_bases;
    snap_image = image;
    snap_tick = tick;
  }

(* Fast path to a roadmark: run [invocations] complete kernel
   invocations through the functional interpreter (no events, no timing)
   on an identically built system, then snapshot its memory. The
   snapshot's tick stays 0, which is hyperperiod-aligned by construction
   — the restored run's clock phases match an uninterrupted detailed
   run's at any aligned boundary. [invocations = 0] snapshots the
   initialized state ("start"). *)
let warm_up ?(config = Config.default) ?func ~invocations (w : W.t) =
  if invocations < 0 then invalid_arg "warm_up: invocations must be non-negative";
  let func = match func with Some f -> f | None -> W.compile w in
  let b = build ~config ~func w in
  let backing = System.backing b.b_sys in
  w.W.init (Salam_sim.Rng.create config.Config.seed) backing b.b_bases;
  let modul = { Salam_ir.Ast.funcs = [ func ]; globals = [] } in
  (* each invocation leaves the MMR end state a detailed one leaves, or
     the restored system's memory-mapped words would betray how it got
     to the roadmark *)
  Salam_ir.Interp.run_each backing modul ~entry:func.Salam_ir.Ast.fname
    ~args:(W.args w ~bases:b.b_bases) ~invocations (Accelerator.write_end_state b.b_acc);
  make_snapshot ~config ~invocations w b

(* Detailed-engine path to the same roadmark: run [invocations] timed
   invocations and snapshot at the aligned boundary after the last.
   Exists so the oracle can prove capture/restore round-trips and that
   the interpreter warm-up reaches a bit-identical state. *)
let capture ?(config = Config.default) ?trace ?func ~invocations (w : W.t) =
  if invocations < 1 then invalid_arg "capture: invocations must be at least 1";
  let b = build ~config ?trace ?func w in
  let bases = b.b_bases in
  w.W.init (Salam_sim.Rng.create config.Config.seed) (System.backing b.b_sys) bases;
  for k = 1 to invocations do
    let finished = ref false in
    Accelerator.launch b.b_acc ~args:(W.args w ~bases) ~on_done:(fun _ -> finished := true);
    ignore (System.run b.b_sys);
    if not !finished then
      failwith (Printf.sprintf "capture: %s did not finish (invocation %d)" w.W.name k);
    ignore (boundary b)
  done;
  make_snapshot ~config ~invocations w b

(* --- domain-parallel sweeps ------------------------------------------- *)

let default_domains () =
  match Sys.getenv_opt "SALAM_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg (Printf.sprintf "SALAM_DOMAINS: %S is not a positive integer" s))
  | None -> Domain.recommended_domain_count ()

let parallel_map ?domains f xs =
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let n = List.length xs in
  if domains <= 1 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* work-stealing by index: each worker claims the next unprocessed
       element, so an expensive configuration does not serialise the
       cheap ones behind it *)
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue_ := false
        else
          results.(i) <-
            Some (match f input.(i) with v -> Ok v | exception e -> Error e)
      done
    in
    let helpers =
      List.init (min domains n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
  end

type job = {
  job_config : Config.t;
  job_workload : W.t;
  job_invocations : int;
  job_from : snapshot option;
}

let job ?(invocations = 1) ?from config w =
  { job_config = config; job_workload = w; job_invocations = invocations; job_from = from }

let simulate_jobs ?domains jobs =
  (* compile every kernel up front: compilation is memoised in a shared
     cache, and doing it here keeps the parallel phase contention-free *)
  List.iter (fun j -> ignore (W.compile j.job_workload)) jobs;
  parallel_map ?domains
    (fun j ->
      simulate ~config:j.job_config ~invocations:j.job_invocations ?from:j.job_from j.job_workload)
    jobs

let fu_occupancy result cls =
  let allocated = match List.assoc_opt cls result.fu_allocated with Some n -> n | None -> 0 in
  if allocated <= 0 then 0.0
  else
    match List.assoc_opt cls result.stats.Engine.fu_busy_integral with
    | Some integral ->
        let cycles = Int64.to_float result.cycles in
        (* a pipelined unit offers latency-many concurrent stages *)
        let spec = Salam_hw.Profile.spec result.hw cls in
        let stages =
          if spec.Salam_hw.Profile.pipelined then max 1 spec.Salam_hw.Profile.latency else 1
        in
        if cycles <= 0.0 then 0.0
        else integral /. cycles /. float_of_int (allocated * stages)
    | None -> 0.0
