(* dse-sweep: cold [salam_dse run] processes, one after another, each
   sweeping the same fast-forwarded GEMM space: six distinct kernels
   (unroll x junroll) over SPM, cache and DRAM attachments, with the
   port and FU axes and the clock picked by the seed from choices of
   similar cost (the cache size is fixed: it moves sweep time by a
   sixth), so the point count (48) and the work are steady across
   seeds. The command users run: the only workload where the frontend
   compiles many kernels per process, where interpreter warm-up and
   checkpoint restore do work, and where across-point fan-out and the
   cache and DRAM devices run. Every sweep must exit 0 and write a
   byte-identical CSV. *)

module Explore = Salam_dse.Explore
module Space = Salam_dse.Space
module Point = Salam_dse.Point

type sweep = {
  n : int;
  unrolls : int list;
  junrolls : int list;
  mems : Point.memory_kind list;
  ports : int list;
  fus : int list;
  cache_bytes : int list;
  clock : float;
}

let invocations = 3

let fast_forward = 2

let sweep_of (ctx : Run.ctx) =
  let rng = Stat.rng ctx.Run.seed "dse-sweep" in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  if ctx.Run.quick then
    {
      n = 8;
      unrolls = [ 2 ];
      junrolls = [ 2 ];
      mems = [ Point.Spm; Point.Dram ];
      ports = pick [ [ 1; 2 ]; [ 1; 4 ] ];
      fus = [ 0 ];
      cache_bytes = [ 1024 ];
      clock = pick [ 400.; 500. ];
    }
  else
    {
      n = 16;
      unrolls = [ 4; 8; 16 ];
      junrolls = [ 4; 8 ];
      mems = [ Point.Spm; Point.Cache; Point.Dram ];
      ports = pick [ [ 1; 8 ]; [ 2; 8 ]; [ 1; 16 ]; [ 2; 16 ] ];
      fus = pick [ [ 0; 2 ]; [ 0; 4 ]; [ 2; 8 ]; [ 4; 8 ] ];
      cache_bytes = [ 2048 ];
      clock = pick [ 400.; 500.; 600. ];
    }

let ints l = String.concat "," (List.map string_of_int l)

let cli_args s ~csv =
  [
    "run"; "--workload"; "gemm"; "--gemm-n"; string_of_int s.n;
    "--invocations"; string_of_int invocations; "--fast-forward"; string_of_int fast_forward;
    "--mem"; String.concat "," (List.map Point.memory_kind_to_string s.mems);
    "--unroll"; ints s.unrolls; "--junroll"; ints s.junrolls; "--ports"; ints s.ports;
    "--fu"; ints s.fus; "--cache-size"; ints s.cache_bytes; "--clock"; Printf.sprintf "%g" s.clock;
    "--csv"; csv; "--quiet";
  ]

(* The same union of per-memory spaces the CLI declares, for the
   in-process comparison runs. *)
let spaces s =
  let common =
    Space.[ Fu_limit s.fus; Unroll s.unrolls; Junroll s.junrolls; Clock_mhz [ s.clock ] ]
  in
  List.map
    (function
      | Point.Spm ->
          Space.create ~derive:Space.spm_balanced
            (Space.Memory [ Point.Spm ] :: Space.Read_ports s.ports :: common)
      | Point.Cache ->
          Space.create (Space.Memory [ Point.Cache ] :: Space.Cache_bytes s.cache_bytes :: common)
      | Point.Dram -> Space.create (Space.Memory [ Point.Dram ] :: common))
    s.mems

(* "[dse] candidates=.. simulated=.. snapshots=.." from the CLI log *)
let summary_field log key =
  List.find_map
    (fun tok ->
      match String.split_on_char '=' tok with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) (Proc.read_file log)))

let run (ctx : Run.ctx) =
  let exe = Filename.concat ctx.Run.bin_dir "salam_dse.exe" in
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  let s = sweep_of ctx in
  (* one cold process, waited for while sampling its peak RSS *)
  let dse name args =
    let log = Proc.tmp (name ^ ".log") in
    let status, rss = Proc.wait_sampling_rss (Proc.spawn ~log exe args) in
    if status <> Unix.WEXITED 0 then
      Report.fail "dse-sweep: salam_dse %s failed:\n%s" name (Proc.tail_of_file log);
    (log, rss)
  in
  (* set-up: one cold single-point sweep, the cost of a process start
     and a first kernel compile *)
  Run.setup ~reps:10 ctx (fun i ->
      ignore
        (dse (Printf.sprintf "setup-%d" i)
           [
             "run"; "--workload"; "gemm"; "--gemm-n"; string_of_int s.n; "--mem"; "spm";
             "--ports"; "2"; "--fu"; "0"; "--unroll"; "2"; "--junroll"; "2";
             "--csv"; Proc.tmp (Printf.sprintf "setup-%d.csv" i); "--quiet";
           ]));
  let reference = ref None and points = ref [] and rss = ref [] and snapshots = ref 0 in
  let words = ref 0. and majors = ref 0 in
  let ops =
    Run.timed_loop ctx (Run.count ctx ~full:10 ~quick:2) (fun ~traced i ->
        let majors0 = (Gc.quick_stat ()).Gc.major_collections in
        let (), w =
          Stat.allocated @@ fun () ->
          Span.root ~req:i traced "dse-sweep.sweep" (fun sp ->
            let csv = Proc.tmp (Printf.sprintf "sweep-%d.csv" i) in
            let log, hwm =
              Span.span ~req:i sp "salam_dse.process" (fun _ ->
                  dse (Printf.sprintf "sweep-%d" i) (cli_args s ~csv))
            in
            Report.ops 1;
            rss := hwm :: !rss;
            points := Option.value ~default:0 (summary_field log "simulated") :: !points;
            snapshots := Option.value ~default:0 (summary_field log "snapshots");
            match (Proc.read_file csv, !reference) with
            | body, None -> reference := Some (if ctx.Run.plant then body ^ "#" else body)
            | body, Some r when body = r -> ()
            | _, Some _ ->
                Report.fail "dse-sweep: sweep %d wrote a CSV that differs from sweep 0" i
            | exception Sys_error e -> Report.fail "dse-sweep: sweep %d wrote no CSV: %s" i e)
        in
        words := !words +. w;
        majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - majors0))
  in
  let npoints = match !points with p :: _ -> p | [] -> 0 in
  if npoints = 0 || List.exists (( <> ) npoints) !points then
    Report.fail "dse-sweep: point counts differ between sweeps or are zero";
  let sweeps = Run.untraced ops in
  Run.end_to_end ~ops ~latency_s:(Stat.minimum sweeps)
    ~items:(float_of_int (List.length sweeps * npoints))
    ~rss_mb:(Stat.median !rss) ();
  Report.sample "child_rss_mb" !rss;
  Run.gc_per_op ~ops:(List.length ops) !words !majors;
  if ctx.Run.trace then begin
    Run.trace_summary ~workload:"dse-sweep" ~ops (Span.all ());
    Report.metric "dse.points" (float_of_int npoints);
    Report.metric "dse.snapshots" (float_of_int !snapshots);
    Span.root true "probe" (fun sp ->
        let reps = Run.probe_reps ctx in
        let gemm unroll junroll =
          let w = Salam_workloads.Gemm.workload ~n:s.n ~unroll ~junroll () in
          { Probe.w; config = Salam.Config.default }
        in
        let kernels = List.concat_map (fun u -> List.map (gemm u) s.junrolls) s.unrolls in
        ignore (Probe.kernels ~parent:sp ~reps kernels);
        let explore ?fast_forward domains () =
          Span.span sp "dse.explore" (fun _ ->
              Explore.run ~domains ?fast_forward ~invocations
                ~target:(Explore.gemm_target ~n:s.n ())
                ~strategy:Explore.Exhaustive (spaces s))
        in
        let report = explore ~fast_forward ctx.Run.nproc () in
        (match !reference with
        | Some csv when Salam_dse.Pareto.to_csv report.Explore.measurements <> csv ->
            Report.fail "dse-sweep: the in-process sweep's CSV differs from salam_dse's"
        | _ -> ());
        Probe.store ~parent:sp ~reps report.Explore.measurements;
        let pairs = if ctx.Run.quick then 1 else 2 in
        let sweep () = ignore (explore ~fast_forward ctx.Run.nproc ()) in
        let _, ff =
          Probe.speedup ~pairs ~what:"fanout" ~par:sweep
            ~seq:(fun () -> ignore (explore ~fast_forward 1 ()))
        in
        let (), no_ff = Stat.time (fun () -> ignore (explore ctx.Run.nproc ())) in
        Report.detail "dse.explore_ms" "ms" (ff *. 1e3);
        Report.detail "dse.explore_no_ff_ms" "ms" (no_ff *. 1e3);
        Report.metric "dse.ff_speedup" (no_ff /. ff);
        (* the same sweep through the CLI and in process, back to back *)
        let cli () =
          ignore (dse "probe-sweep" (cli_args s ~csv:(Proc.tmp "probe-sweep.csv")))
        in
        let cli, inproc =
          Span.span sp "dse.process" (fun _ -> Probe.interleaved ~pairs cli sweep)
        in
        Report.detail ~n:pairs "dse.cli_sweep_ms" "ms" (cli *. 1e3);
        Report.metric ~n:pairs "dse.process_overhead_frac" ((cli -. inproc) /. cli))
  end
