open Salam_mem

type t = { xbar : Xbar.t }

(* the fixed backbone stated in fabric.mli *)
let create system =
  let clock = System.clock system ~mhz:800.0 in
  let kernel = System.kernel system in
  let stats = System.stats system in
  let dram =
    Dram.create kernel clock stats
      {
        Dram.name = "dram";
        base = 0L;
        size = Salam_ir.Memory.size (System.backing system);
        access_latency = 30;
        bus_bytes = 8;
      }
  in
  let xbar =
    Xbar.create kernel clock stats
      { Xbar.name = "global_xbar"; latency = 1; width = 4 }
  in
  Xbar.set_default xbar (Dram.port dram);
  { xbar }

let port t = Xbar.port t.xbar

let add_range t ~base ~size target = Xbar.add_range t.xbar ~base ~size target
