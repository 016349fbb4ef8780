(* Snapshot oracle: a fast-forwarded run must be indistinguishable from
   an uninterrupted one.

   For a workload, a memory attachment, an engine mode and a roadmark
   [k] (1 <= k < invocations) it runs three journeys to the end of the
   same [invocations]-long schedule and cross-checks them:

   - [U], uninterrupted: all invocations in the detailed engine, with a
     probe recording statistics and the trace high-water mark at the
     roadmark boundary.
   - [F], capture round-trip: [k] detailed invocations, snapshot at
     the boundary ({!Salam.capture}), restore into a freshly built
     system and run the remainder.
   - [W], interpreter warm-up: [k] functional invocations
     ({!Salam.warm_up}), snapshot, restore, run the remainder.

   Bit-identity demands: final memory images byte-equal across all
   three; F's post-roadmark statistics equal to U's end-minus-probe
   deltas (exact for counters, relative tolerance for energy floats,
   whose accumulation is not associative); F's trace stream exactly
   equal to U's post-roadmark suffix at the same absolute ticks; W's
   run exactly equal to F's; and the warm-up snapshot's memory image
   byte-equal to the capture snapshot's. *)

module W = Salam_workloads.Workload
module Engine = Salam_engine.Engine
module Memory = Salam_ir.Memory
module Trace = Salam_obs.Trace
module Config = Salam.Config

(* Energy accumulators and busy integrals are float sums: (a +. b) -. a
   is not exactly b, so delta comparisons get a relative tolerance. For
   values under 10^8 the tolerance is below 1, so the integer counters
   (every engine counter included) are still compared exactly. *)
let approx a b = abs_float (a -. b) <= 1e-9 *. (1.0 +. max (abs_float a) (abs_float b))

let diff_sim_stats ~errs u_end probe f =
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let lookup path xs = match List.assoc_opt path xs with Some v -> v | None -> 0.0 in
  List.iter
    (fun (path, uv) ->
      let du = uv -. lookup path probe in
      let fv = lookup path f in
      if not (approx du fv) then
        err "system stat %s: uninterrupted delta %g, fast-forwarded %g" path du fv)
    u_end;
  (* a path F has but U lacks would mean the topologies differ *)
  List.iter
    (fun (path, _) ->
      if not (List.mem_assoc path u_end) then
        err "system stat %s: present in fast-forwarded run only" path)
    f

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

(* Whether running the kernel [invocations] times back-to-back on one
   buffer set still satisfies the golden model — false for in-place
   workloads (FFT, md_grid) whose second run consumes its own output.
   Decided by the functional model alone; non-idempotent workloads keep
   every bit-identity leg but skip the golden assertions, which belong
   to the interpreter-vs-engine oracle anyway. *)
let idempotent ~seed ?func ~invocations (w : W.t) =
  let func = match func with Some f -> f | None -> W.compile w in
  let mem = Memory.create ~size:(max (1 lsl 22) (4 * W.total_buffer_bytes w)) in
  let bases = W.alloc_buffers w mem in
  w.W.init (Salam_sim.Rng.create seed) mem bases;
  let modul = { Salam_ir.Ast.funcs = [ func ]; globals = [] } in
  for _ = 1 to invocations do
    ignore
      (Salam_ir.Interp.run mem modul ~entry:func.Salam_ir.Ast.fname ~args:(W.args w ~bases))
  done;
  w.W.check mem bases

let check_fast_forward ?(config = Config.default) ?func ?(roadmark = 1) ?(invocations = 2)
    (w : W.t) =
  if roadmark < 1 || roadmark >= invocations then
    invalid_arg "check_fast_forward: need 1 <= roadmark < invocations";
  (* the engine's and cache's invariant checks are read-only, so all
     three journeys run with them on *)
  let config =
    { config with Config.engine = { config.Config.engine with Engine.check = true } }
  in
  Check_oracle.guard Fun.id @@ fun () ->
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let idem = idempotent ~seed:config.Config.seed ?func ~invocations w in
  (* U: the uninterrupted reference, probed at the roadmark *)
  let tr_u = Trace.create () in
  let probe = ref None in
  let mem_u = ref None in
  let r_u =
    Salam.simulate ~config ~trace:tr_u ?func ~invocations
      ~probe:(roadmark, fun p -> probe := Some p)
      ~inspect:(fun m -> mem_u := Some (Memory.snapshot m))
      w
  in
  let p = match !probe with Some p -> p | None -> failwith "probe never fired" in
  (* F: detailed capture at the roadmark, restore, finish *)
  let capture_snap = Salam.capture ~config ?func ~invocations:roadmark w in
  let tr_f = Trace.create () in
  let mem_f = ref None in
  let r_f =
    Salam.simulate ~config ~trace:tr_f ?func ~invocations ~from:capture_snap
      ~inspect:(fun m -> mem_f := Some (Memory.snapshot m))
      w
  in
  (* W: interpreter warm-up to the same roadmark, restore, finish *)
  let warm_snap = Salam.warm_up ~config ?func ~invocations:roadmark w in
  let mem_w = ref None in
  let r_w =
    Salam.simulate ~config ?func ~invocations ~from:warm_snap
      ~inspect:(fun m -> mem_w := Some (Memory.snapshot m))
      w
  in
  let mem_u = Option.get !mem_u and mem_f = Option.get !mem_f and mem_w = Option.get !mem_w in
  (* golden models: only meaningful when repeated invocations are *)
  if idem then begin
    if not r_u.Salam.correct then err "uninterrupted run fails the workload's golden model";
    if not r_f.Salam.correct then err "capture round-trip fails the workload's golden model";
    if not r_w.Salam.correct then err "warm-up round-trip fails the workload's golden model"
  end;
  (* final memory images: buffers, MMRs (status and return value) and
     allocator state all live here *)
  if not (Memory.snapshot_equal mem_u mem_f) then
    err "final memory differs: uninterrupted vs capture round-trip";
  if not (Memory.snapshot_equal mem_f mem_w) then
    err "final memory differs: capture round-trip vs interpreter warm-up";
  (* post-roadmark statistics, the engine's counters included *)
  diff_sim_stats ~errs r_u.Salam.sim_stats p.Salam.pr_sim_stats r_f.Salam.sim_stats;
  (* the two restored runs start from bit-identical state and must be
     indistinguishable from each other, floats included *)
  if r_f.Salam.sim_stats <> r_w.Salam.sim_stats then
    err "capture-restored and warm-up-restored system statistics differ";
  (* trace: F runs at the same absolute ticks as U past the roadmark,
     so its stream must equal U's suffix with no normalization *)
  let u_suffix = drop p.Salam.pr_trace_events (Trace.to_lines tr_u) in
  (match Trace.first_divergence u_suffix (Trace.to_lines tr_f) with
  | Some d -> err "trace streams diverge: %s" (Trace.divergence_to_string d)
  | None -> ());
  (* warm-up fidelity at the roadmark: the interpreter and the
     detailed engine must reach byte-identical memory (the snapshots
     as a whole differ only in tick) *)
  if not (Memory.snapshot_equal capture_snap.Salam.snap_image warm_snap.Salam.snap_image) then
    err "roadmark memory differs: detailed capture vs interpreter warm-up";
  match List.rev !errs with [] -> Ok () | es -> Error (String.concat "; " es)

let check_all ?(config = Config.default) ?(roadmark = 1) ?(invocations = 2) workloads =
  List.concat_map
    (fun (w : W.t) ->
      List.map
        (fun mode ->
          let config = { config with Config.engine = { config.Config.engine with Engine.mode } } in
          {
            Check_oracle.r_subject =
              Printf.sprintf "%-14s %-5s %-8s ff@%d/%d" w.W.name (Config.memory_name config)
                (Engine.mode_to_string mode) roadmark invocations;
            r_result = check_fast_forward ~config ~roadmark ~invocations w;
          })
        [ Engine.Dynamic; Engine.Compiled ])
    workloads
