type t = { kernel : Kernel.t; period : int; period64 : int64; freq_mhz : float }

let create kernel ~freq_mhz =
  if freq_mhz <= 0.0 then invalid_arg "Clock.create: frequency must be positive";
  let period = int_of_float (Float.round (1e6 /. freq_mhz)) in
  let period = if period < 1 then 1 else period in
  { kernel; period; period64 = Int64.of_int period; freq_mhz }

let period_ticks t = t.period64

let cycle_of_tick t tick = Int64.of_int (Int64.to_int tick / t.period)

let current_cycle_i t = Kernel.now_i t.kernel / t.period

let current_cycle t = Int64.of_int (current_cycle_i t)

let[@inline] next_edge_i t =
  let now = Kernel.now_i t.kernel in
  let rem = now mod t.period in
  if rem = 0 then now else now + (t.period - rem)

let[@inline] edge_tick_i t ~cycles =
  assert (cycles >= 0);
  next_edge_i t + (cycles * t.period)

let schedule_cycles t ~cycles action = Kernel.schedule_at_i t.kernel ~tick:(edge_tick_i t ~cycles) action

let kernel t = t.kernel

let seconds_of_cycles t cycles = Int64.to_float cycles /. (t.freq_mhz *. 1e6)
