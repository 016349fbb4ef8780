open Salam_ir

type t = {
  name : string;
  kernel : Salam_frontend.Lang.kernel;
  buffers : (string * int) list;
  scalar_args : Bits.t list;
  init : Salam_sim.Rng.t -> Memory.t -> int64 array -> unit;
  check : Memory.t -> int64 array -> bool;
}

(* The compile cache is shared by every simulation in the process,
   including domain-parallel sweeps; guard it so concurrent compiles
   stay safe. Compilation is deterministic, so losing a race and
   compiling the same kernel twice would only waste work — but we hold
   the lock across the compile to keep it single-shot. Every workload
   is named after its kernel, so the kernel name is the key. *)
let cache : (string, Ast.func) Hashtbl.t = Hashtbl.create 16

let cache_lock = Mutex.create ()

let compile_kernel (k : Salam_frontend.Lang.kernel) =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache k.kname with
      | Some f -> f
      | None ->
          let f = Salam_frontend.Compile.kernel k in
          Hashtbl.replace cache k.kname f;
          f)

let compile t = compile_kernel t.kernel

let modul t = { Ast.funcs = [ compile t ]; globals = [] }

let alloc_buffers t mem =
  Array.of_list (List.map (fun (_, bytes) -> Memory.alloc mem ~bytes ~align:64) t.buffers)

let args t ~bases = Array.to_list (Array.map (fun b -> Bits.Int b) bases) @ t.scalar_args

let total_buffer_bytes t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.buffers

let run_functional ?(seed = 42L) t =
  let mem = Memory.create ~size:(max (1 lsl 22) (4 * total_buffer_bytes t)) in
  let bases = alloc_buffers t mem in
  t.init (Salam_sim.Rng.create seed) mem bases;
  ignore (Interp.run mem (modul t) ~entry:t.kernel.Salam_frontend.Lang.kname ~args:(args t ~bases));
  t.check mem bases
