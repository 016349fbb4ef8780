(* Shared plumbing for the benchmark harness. *)

open Salam_ir
module W = Salam_workloads.Workload

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let pct x = x *. 100.0

(* signed percentage error of [got] against [reference] *)
let err_pct ~got ~reference =
  if reference = 0.0 then 0.0 else (got -. reference) /. reference *. 100.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* initialise a workload's buffers in a fresh flat memory (for the
   trace-based baseline and the reference models) *)
let functional_setup (w : W.t) =
  let mem = Memory.create ~size:(1 lsl 23) in
  let bases = W.alloc_buffers w mem in
  w.W.init (Salam_sim.Rng.create 42L) mem bases;
  (mem, bases)

let block_counts_of (w : W.t) =
  let mem, bases = functional_setup w in
  Salam_reference.Hls_model.block_counts mem (W.modul w)
    ~entry:w.W.kernel.Salam_frontend.Lang.kname ~args:(W.args w ~bases)

let trace_of (w : W.t) =
  let mem, bases = functional_setup w in
  let file = Filename.temp_file ("salam_" ^ w.W.name) ".trace" in
  let events =
    Salam_aladdin.Trace.generate mem (W.modul w)
      ~entry:w.W.kernel.Salam_frontend.Lang.kname ~args:(W.args w ~bases) ~file
  in
  (file, events)

let short_name (w : W.t) =
  (* strip size suffixes for display: "gemm_ncubed_n16_u2" -> "gemm_ncubed" *)
  match String.index_opt w.W.name '_' with
  | None -> w.W.name
  | Some _ ->
      let parts = String.split_on_char '_' w.W.name in
      let keep =
        List.filter
          (fun p ->
            String.length p = 0
            || not (List.mem p.[0] [ 'n'; 'u'; 's'; 'd'; 'p' ] && String.length p > 1
                   && p.[1] >= '0' && p.[1] <= '9'))
          parts
      in
      String.concat "_" (List.filter (fun p -> p <> "") keep)
