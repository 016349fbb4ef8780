type t = {
  kernel : Salam_sim.Kernel.t;
  stats : Salam_sim.Stats.group;
  backing : Salam_ir.Memory.t;
  mutable clock_periods : int list;  (* every period handed out by [clock] *)
}

let create ?trace () =
  let kernel = Salam_sim.Kernel.create () in
  (* installed before any component exists, so every captured sink is live *)
  Salam_sim.Kernel.set_trace kernel trace;
  {
    kernel;
    stats = Salam_sim.Stats.group "system";
    backing = Salam_ir.Memory.create ~size:(64 * 1024 * 1024);
    clock_periods = [];
  }

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

(* Every queued request, MSHR fill, crossbar packet and DRAM completion
   holds a scheduled event or a sleeper, so an idle kernel means every
   device has drained and the backing memory is the whole state. *)
let snapshot t =
  if not (Salam_sim.Kernel.idle t.kernel) then
    invalid_arg "System.snapshot: events still scheduled — the system is not quiescent";
  (Salam_ir.Memory.snapshot t.backing, Salam_sim.Kernel.now t.kernel)

(* Only a freshly built system holds no timing state (cold caches, free
   channels, zero statistics), so that is the only one restored into. *)
let restore t image ~tick =
  if not (Salam_sim.Kernel.idle t.kernel) || Salam_sim.Kernel.events_executed t.kernel > 0 then
    invalid_arg "System.restore: the system has already run — restore needs a freshly built one";
  Salam_ir.Memory.restore t.backing image;
  Salam_sim.Kernel.advance_to t.kernel ~tick

let alloc_region t ~bytes = Salam_ir.Memory.alloc t.backing ~bytes ~align:64

let run ?max_ticks t = Salam_sim.Kernel.run ?max_ticks t.kernel

let elapsed_seconds t = Int64.to_float (Salam_sim.Kernel.now t.kernel) *. 1e-12
