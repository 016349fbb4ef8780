(* What every workload shares: the run context, repeated set-up, the
   timed loop, the end-to-end figures and the traced-run summary. *)

type ctx = {
  seed : int;
  seconds : float;  (** scales the fixed operation counts, see [count] *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
  quick : bool;  (** tiny inputs and counts, for the smoke test *)
  plant : bool;  (** corrupt one expected answer: the run must fail *)
  nproc : int;
  bin_dir : string;  (** where salam_dse.exe and salam_served.exe live *)
}

let probe_reps ctx = if ctx.quick then 1 else 3

(* Every workload runs a fixed number of operations, never "until the
   clock runs out", so two builds always do identical work. [full] is
   the count for [nominal_seconds] (about the length of the timed part
   on a 2-vCPU machine); --seconds scales it linearly. *)
let nominal_seconds = 16.

let count ctx ~full ~quick =
  if ctx.quick then quick
  else max 2 (int_of_float (Float.round (float_of_int full *. ctx.seconds /. nominal_seconds)))

let setup_times = ref []

let resetups = ref 0

let resetup = ref ignore

(* Set-up is timed [reps] times (once when quick); [setup_s] is the
   median. The first build is returned; the others are made during the
   timed part, at evenly spaced points (see [between]), and handed to
   [discard]. Spread out like this, the median samples the whole run: a
   set-up of a few tens of milliseconds done [reps] times in a row reads
   whatever the host did in that one instant. [f i] builds the [i]th. *)
let setup ?(reps = 3) ?(discard = ignore) ctx f =
  let timed i =
    let v, t = Stat.time (fun () -> f i) in
    setup_times := t :: !setup_times;
    v
  in
  resetups := if ctx.quick then 0 else reps - 1;
  resetup := (fun i -> discard (timed i));
  timed 0

let calib = ref []

(* Before operation [i] of [n], outside its timing: three samples of the
   machine's speed (back to back, so most find the unit's table warm and
   do not measure what the last operation left in the caches) and, at
   [resetups] evenly spaced points, one more timed set-up. *)
let between i n =
  for _ = 1 to 3 do
    calib := Calib.sample () :: !calib
  done;
  let k = !resetups + 1 in
  if i > 0 && i * k / n <> (i - 1) * k / n then !resetup (i * k / n)

type op = { traced : bool; seconds : float }

(* Run [f] [n] times. In a traced run every second operation is traced,
   so the untraced ones interleaved with them give the tracing overhead. *)
let timed_loop (ctx : ctx) n f =
  let rec go i acc =
    if i = n then List.rev acc
    else begin
      between i n;
      let traced = ctx.trace && i mod 2 = 1 in
      let (), seconds = Stat.time (fun () -> f ~traced i) in
      go (i + 1) ({ traced; seconds } :: acc)
    end
  in
  go 0 []

let untraced ops = List.filter_map (fun o -> if o.traced then None else Some o.seconds) ops

(* Host garbage collection of the benchmark process per untraced
   operation: minor words allocated in the calling domain, and major
   collections. *)
let gc_per_op ~ops words majors =
  let n = float_of_int (max 1 ops) in
  Report.metric ~n:ops "gc.minor_mwords" (words /. n /. 1e6);
  Report.metric ~n:ops "gc.major_collections" (float_of_int majors /. n)

(* A closed loop of [n] rounds over named items, in an order the seed
   shuffles anew each round. [f name x] runs one item, inside a span
   named [span name]; each item is one attempted operation. Reports the
   per-item median as [detail.<name>] and the collection figures.
   Returns the rounds and the fastest round: the sum of each item's
   fastest time, which rests on many more samples than whole rounds. *)
let rounds ctx ~n ~workload ~span ~detail items f =
  let per_item = Hashtbl.create 16 and words = ref 0. and majors = ref 0 in
  let ops =
    timed_loop ctx n (fun ~traced i ->
        let order = Stat.shuffle (Stat.rng ctx.seed (workload, i)) items in
        let majors0 = (Gc.quick_stat ()).Gc.major_collections in
        let (), w =
          Stat.allocated (fun () ->
              Span.root ~req:i traced (workload ^ ".round") (fun sp ->
                  List.iter
                    (fun (name, x) ->
                      let (), t =
                        Stat.time (fun () -> Span.span ~req:i sp (span name) (fun _ -> f name x))
                      in
                      Report.ops 1;
                      if not traced then
                        Hashtbl.replace per_item name
                          (t :: Option.value ~default:[] (Hashtbl.find_opt per_item name)))
                    order))
        in
        if not traced then begin
          words := !words +. w;
          majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - majors0)
        end)
  in
  gc_per_op ~ops:(List.length (untraced ops)) !words !majors;
  Hashtbl.iter
    (fun name ts ->
      Report.sample ("item_s." ^ name) ts;
      Report.detail ~n:(List.length ts) (detail ^ "." ^ name) "ms" (Stat.median ts *. 1e3))
    per_item;
  (ops, Stat.sum (Hashtbl.fold (fun _ ts acc -> Stat.minimum ts :: acc) per_item []))

(* The end-to-end figures of a closed loop.

   Gated: [setup_s], the median set-up; [latency_ms_min], the fastest
   operation [latency_s]; both at the reference speed (see [Calib]); and
   peak resident memory. The fastest of many repeats of the same work is
   what it costs while the shared core is free, and the scaling removes
   the slower drift of the host between runs; together they keep two
   sets of runs of the same build within a few percent.

   Printed, not gated: the same two unscaled, the median operation, and
   items completed per second of [busy_s] (by default the operations'
   own time, right for a single caller). In a closed loop throughput is
   the latency again, seen through the noisiest statistic, a mean. *)
let end_to_end ?busy_s ~ops ~latency_s ~items ~rss_mb () =
  let times = untraced ops and setups = !setup_times and calib_s = Stat.p10 !calib in
  let n = List.length times and n_setup = List.length setups in
  let scale = Calib.reference_s /. calib_s in
  let busy_s = Option.value busy_s ~default:(Stat.sum times) in
  Report.sample "op_s" times;
  Report.sample "setup_s" (List.rev setups);
  Report.sample "calib_s" (List.rev !calib);
  Report.metric ~n:n_setup "setup_s" (Stat.median setups *. scale);
  Report.metric ~n "latency_ms_min" (latency_s *. scale *. 1e3);
  Report.metric "peak_rss_mb" rss_mb;
  Report.detail ~n:(List.length !calib) "calib_ms_p10" "ms" (calib_s *. 1e3);
  Report.detail ~n:n_setup "setup_s_unscaled" "s" (Stat.median setups);
  Report.detail ~n "latency_ms_min_unscaled" "ms" (latency_s *. 1e3);
  Report.detail ~n "op_ms_p50" "ms" (Stat.median times *. 1e3);
  Report.detail ~n "throughput_per_s" "1/s" (items /. busy_s)

let self_rss_mb () = Option.value ~default:nan (Proc.vm_hwm_mb 0)

(* Summary of a traced run: self time per layer over the traced
   operations, the ledger's own unattributed remainder, and the
   tracing overhead against the interleaved untraced operations. *)
let trace_summary ~workload ~ops spans =
  let traced = List.filter_map (fun o -> if o.traced then Some o.seconds else None) ops in
  let plain = untraced ops in
  if traced <> [] && plain <> [] then
    Report.metric ~n:(List.length traced) "trace.overhead_frac"
      ((Stat.median traced /. Stat.median plain) -. 1.)
  else Report.fail "%s: the traced run needs traced and untraced operations" workload;
  let whole = Span.whole spans in
  let share t = if whole > 0. then t /. whole else 0. in
  let rows = Span.self_times spans in
  let is_root name = List.exists (fun s -> s.Span.parent = 0 && s.Span.name = name) spans in
  let remainder = Stat.sum (List.map (fun (name, (t, _)) -> if is_root name then t else 0.) rows) in
  Report.metric ~n:(List.length traced) "trace.remainder_frac" (share remainder);
  Printf.printf "[trace] %s: self time over %d traced operations (%.1f ms)\n" workload
    (List.length traced) (whole *. 1e3);
  List.iter
    (fun (name, (t, n)) ->
      Printf.printf "[trace]   %-36s %10.3f ms %6.2f%%  spans=%d%s\n" name (t *. 1e3)
        (100. *. share t) n
        (if is_root name then "  (ledger remainder)" else ""))
    rows;
  let sum = Stat.sum (List.map (fun (_, (t, _)) -> t) rows) in
  Printf.printf "[trace]   %-36s %10.3f ms %6.2f%%\n" "sum" (sum *. 1e3) (100. *. share sum)
