module Checkpoint = Salam_sim.Checkpoint

type t = {
  kernel : Salam_sim.Kernel.t;
  stats : Salam_sim.Stats.group;
  backing : Salam_ir.Memory.t;
  mutable agents : Checkpoint.agent list;  (* registration order, reversed *)
  mutable clock_periods : int list;  (* every period handed out by [clock] *)
}

let register_agent t agent = t.agents <- agent :: t.agents

(* The backing store is the bulk of any checkpoint: all data in the
   system lives here (the timing devices are latency filters). *)
let memory_agent t =
  {
    Checkpoint.agent_name = "memory";
    capture =
      (fun () ->
        let snap = Salam_ir.Memory.snapshot t.backing in
        [
          ("size", Checkpoint.Int (Int64.of_int (Salam_ir.Memory.snapshot_size snap)));
          ("brk", Checkpoint.Int (Int64.of_int (Salam_ir.Memory.snapshot_brk snap)));
          ("data", Checkpoint.Blob (Salam_ir.Memory.snapshot_data snap));
        ]);
    restore =
      (fun sec ->
        let size = Int64.to_int (Checkpoint.find_int sec "size") in
        let brk = Int64.to_int (Checkpoint.find_int sec "brk") in
        let data = Checkpoint.find_blob sec "data" in
        let snap =
          try Salam_ir.Memory.snapshot_of_parts ~size ~brk ~data
          with Invalid_argument msg -> raise (Checkpoint.Invalid msg)
        in
        try Salam_ir.Memory.restore t.backing snap
        with Invalid_argument msg -> raise (Checkpoint.Invalid msg));
  }

let create ?trace () =
  let kernel = Salam_sim.Kernel.create () in
  (* installed before any component exists, so every captured sink is live *)
  Salam_sim.Kernel.set_trace kernel trace;
  let t =
    {
      kernel;
      stats = Salam_sim.Stats.group "system";
      backing = Salam_ir.Memory.create ~size:(64 * 1024 * 1024);
      agents = [];
      clock_periods = [];
    }
  in
  register_agent t (memory_agent t);
  t

let kernel t = t.kernel

let stats t = t.stats

let backing t = t.backing

let clock t ~mhz =
  let c = Salam_sim.Clock.create t.kernel ~freq_mhz:mhz in
  let period = Int64.to_int (Salam_sim.Clock.period_ticks c) in
  if not (List.mem period t.clock_periods) then
    t.clock_periods <- period :: t.clock_periods;
  c

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* least common multiple of every clock period created so far, in ticks *)
let hyperperiod t =
  List.fold_left (fun acc p -> acc / gcd acc p * p) 1 t.clock_periods

(* Advance the idle kernel to the next hyperperiod multiple. Every clock
   domain's phase ([now mod period]) is zero at such ticks, so two
   systems synced this way behave identically afterwards regardless of
   how they got there — the keystone of fast-forward bit-identity. *)
let align t =
  let h = hyperperiod t in
  let now = Salam_sim.Kernel.now_i t.kernel in
  let target = (now + h - 1) / h * h in
  Salam_sim.Kernel.advance_to t.kernel ~tick:(Int64.of_int target);
  Int64.of_int target

let require_idle t what =
  if not (Salam_sim.Kernel.idle t.kernel) then
    raise
      (Checkpoint.Invalid
         (Printf.sprintf "System.%s: events still scheduled — the system is not quiescent" what))

let checkpoint t ~roadmark =
  require_idle t "checkpoint";
  Checkpoint.capture_all ~roadmark ~tick:(Salam_sim.Kernel.now t.kernel) (List.rev t.agents)

let restore t ckpt =
  require_idle t "restore";
  Checkpoint.restore_all ckpt (List.rev t.agents);
  Salam_sim.Kernel.advance_to t.kernel ~tick:ckpt.Checkpoint.tick;
  (* fresh statistics epoch: nothing before the roadmark is counted *)
  Salam_sim.Stats.reset_group t.stats

let alloc_region t ~bytes = Salam_ir.Memory.alloc t.backing ~bytes ~align:64

let run ?max_ticks t = Salam_sim.Kernel.run ?max_ticks t.kernel

let elapsed_seconds t = Int64.to_float (Salam_sim.Kernel.now t.kernel) *. 1e-12
