module Engine = Salam_engine.Engine

type run = {
  memory : Salam_ir.Memory.t;
  bases : int64 array;
  ret : Salam_ir.Bits.t option;
  stats : Engine.run_stats;
}

let run_engine ?(config = Salam.Config.default) ?func ?trace w =
  (* the whole point of this harness: every run validates the engine's
     (and the cache's) own invariants while it executes *)
  let config =
    { config with Salam.Config.engine = { config.Salam.Config.engine with Engine.check = true } }
  in
  let memory = ref None in
  let r = Salam.simulate ~config ?func ?trace ~inspect:(fun m -> memory := Some m) w in
  { memory = Option.get !memory; bases = r.Salam.bases; ret = r.Salam.ret; stats = r.Salam.stats }
