open Salam_ir
open Salam_soc
module W = Salam_workloads.Workload
module Engine = Salam_engine.Engine

type memory_kind =
  | Spm
  | Cache of { size : int; ways : int }
  | Dram

type run = {
  memory : Memory.t;
  bases : int64 array;
  ret : Bits.t option;
  stats : Engine.run_stats;
  cache : Salam_mem.Cache.t option;
  cache_invariant_errors : string list;
}

let round_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 256

let run_engine ?(memory_kind = Spm) ?(seed = 42L)
    ?(mode = Engine.default_config.Engine.mode) ?func ?trace ?profile (w : W.t) =
  let func = match func with Some f -> f | None -> W.compile w in
  let sys = System.create ?trace () in
  let fabric = Fabric.create sys () in
  let cluster = Cluster.create sys fabric ~name:"check" ~clock_mhz:500.0 () in
  (* the whole point of this harness: every run validates the engine's
     own timing invariants while it executes *)
  let engine_config = { Engine.default_config with Engine.check = true; Engine.mode } in
  let acc =
    Accelerator.create sys ~name:w.W.name ~clock_mhz:500.0 ?profile ~engine_config func
  in
  Cluster.add_accelerator cluster acc;
  let buffer_bytes = W.total_buffer_bytes w in
  let cache = ref None in
  let bases =
    match memory_kind with
    | Spm ->
        let spm_size = round_pow2 (buffer_bytes + (64 * List.length w.W.buffers)) in
        let base, _ = Cluster.add_private_spm cluster acc ~size:spm_size () in
        (* carve the workload buffers out of the SPM region, 64-byte
           aligned, exactly as [Salam.simulate] does *)
        let next = ref base in
        Array.of_list
          (List.map
             (fun (_, bytes) ->
               let b = !next in
               next := Int64.add !next (Int64.of_int ((bytes + 63) / 64 * 64));
               b)
             w.W.buffers)
    | Cache { size; ways } ->
        let c =
          Cluster.add_private_cache cluster acc ~size
            ~config:(fun cfg -> { cfg with Salam_mem.Cache.ways })
            ()
        in
        cache := Some c;
        W.alloc_buffers w (System.backing sys)
    | Dram -> W.alloc_buffers w (System.backing sys)
  in
  w.W.init (Salam_sim.Rng.create seed) (System.backing sys) bases;
  let ret = ref None and finished = ref false in
  Accelerator.launch acc
    ~args:(W.args w ~bases)
    ~on_done:(fun r ->
      ret := r;
      finished := true);
  ignore (System.run sys);
  if not !finished then failwith ("Check_harness: " ^ w.W.name ^ " did not finish");
  let cache_invariant_errors =
    match !cache with Some c -> Salam_mem.Cache.invariant_errors c | None -> []
  in
  {
    memory = System.backing sys;
    bases;
    ret = !ret;
    stats = Accelerator.stats acc;
    cache = !cache;
    cache_invariant_errors;
  }
