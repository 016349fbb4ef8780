(* The ledger's metric catalogue, the values one run measured, the
   correctness tally, and the three renderings: human lines, the final
   JSON line, and the [--out] raw-sample file. *)

type def = {
  name : string;
  unit : string;
  only_some : bool;
      (** measured by some workloads only; the others report 0 with n=0 *)
}

let def ?(only_some = false) name unit = { name; unit; only_some }

(* Names and units as in BENCHMARK.json, which also gives each metric's
   direction and bound. Host time unless the unit says otherwise. Every
   workload reports every end-to-end metric; the README defines the
   operation each one times. *)
let end_to_end = [ def "setup_s" "s"; def "latency_ms_min" "ms"; def "peak_rss_mb" "MB" ]

let per_layer =
  [
    (* layer probes over the workload's own distinct kernels *)
    def "frontend.compile_ms" "ms";
    def "cdfg.elaborate_ms" "ms";
    def "engine.schedule_ms" "ms";
    def "core.simulate_ms" "ms";
    def "core.run_ms" "ms";
    def "ir.warm_up_ms" "ms";
    def "core.sim_kips" "kinstr/s";
    def "core.cycles" "cycles";
    def "core.dyn_instr" "count";
    def "core.alloc_mwords" "Mwords";
    (* store, codec and protocol probes over the workload's measurements *)
    def "dse.codec_us" "us";
    def "dse.store_add_us" "us";
    def "dse.store_find_us" "us";
    def "dse.store_open_ms" "ms";
    def "dse.pareto_us" "us";
    def "served.protocol_us" "us";
    (* the timed operations themselves *)
    def "gc.minor_mwords" "Mwords";
    def "gc.major_collections" "count";
    def "trace.overhead_frac" "fraction";
    def "trace.remainder_frac" "fraction";
    (* some workloads only: across-point fan-out (dse-sweep) and islands
       (soc-pipeline) *)
    def ~only_some:true "par.speedup" "x";
    (* one workload each *)
    def ~only_some:true "dse.points" "count";
    def ~only_some:true "dse.snapshots" "count";
    def ~only_some:true "dse.ff_speedup" "x";
    def ~only_some:true "dse.process_overhead_frac" "fraction";
    def ~only_some:true "soc.sim_us" "sim_us";
    def ~only_some:true "soc.alloc_mwords" "Mwords";
    def ~only_some:true "served.hits" "count";
    def ~only_some:true "served.misses" "count";
    def ~only_some:true "served.deduped" "count";
    def ~only_some:true "served.simulated" "count";
    def ~only_some:true "served.sims_per_cold_point" "ratio";
    def ~only_some:true "served.dispatch_frac" "fraction";
  ]

let declared name = List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)

type value = { unit : string; v : float; n : int }

let lock = Mutex.create ()

let values : (string, value) Hashtbl.t = Hashtbl.create 64

let order : string list ref = ref []

let samples : (string * float list) list ref = ref []

let attempted = Atomic.make 0

let failed = Atomic.make 0

let set name unit ~n v =
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem values name) then order := name :: !order;
      Hashtbl.replace values name { unit; v; n })

(* A catalogue metric: its unit comes from the catalogue. *)
let metric ?(n = 1) name v =
  match declared name with
  | Some d -> set name d.unit ~n v
  | None -> invalid_arg ("Report.metric: undeclared metric " ^ name)

(* A workload-specific breakdown: printed and kept in [--out], never in
   the JSON line, whose metric set is fixed across workloads. *)
let detail ?(n = 1) name unit v = set name unit ~n v

let sample name xs = Mutex.protect lock (fun () -> samples := (name, xs) :: !samples)

let ops k = ignore (Atomic.fetch_and_add attempted k)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr failed;
      Printf.eprintf "[ledger] FAILED: %s\n%!" msg)
    fmt

let correct () = Atomic.get failed = 0 && Atomic.get attempted > 0

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_human () =
  List.iter
    (fun name ->
      let { unit; v; n } = Hashtbl.find values name in
      Printf.printf "%-40s %16.6g %-9s n=%d\n" name v unit n)
    (List.rev !order);
  let a = Atomic.get attempted and f = Atomic.get failed in
  Printf.printf "%-40s %16.6g %-9s n=%d\n" "error_rate"
    (if a = 0 then 1. else float_of_int f /. float_of_int a)
    "fraction" a

(* Fill the workload-specific metrics another workload owns, then
   insist every catalogue metric of the requested kind is present and
   finite; a gap is a benchmark defect and fails the run. *)
let finalize ~trace =
  let defs = if trace then per_layer else end_to_end in
  List.iter
    (fun d ->
      match Hashtbl.find_opt values d.name with
      | None when d.only_some -> set d.name d.unit ~n:0 0.
      | None -> fail "metric %s was not measured" d.name
      | Some { v; _ } when not (Float.is_finite v) -> fail "metric %s is not finite" d.name
      | Some _ -> ())
    defs;
  defs

let json_line defs =
  let metrics =
    List.filter_map
      (fun d ->
        Option.map
          (fun { v; _ } ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Span.json_string d.name)
              (if Float.is_finite v then number v else "0")
              (Span.json_string d.unit))
          (Hashtbl.find_opt values d.name))
      defs
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" (correct ())
    (max 1 (Atomic.get attempted))
    (Atomic.get failed) (String.concat "," metrics)

(* The commit of the checkout, read from [.git] directly so nothing is
   looked up outside the working directory; "unknown" when absent. *)
let git_commit () =
  let read p = String.trim (Proc.read_file p) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | sha -> sha
      | exception Sys_error _ -> (
          match
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ sha; r ] when r = ref_ -> Some sha
                | _ -> None)
              (String.split_on_char '\n' (Proc.read_file ".git/packed-refs"))
          with
          | Some sha -> sha
          | None -> "unknown"
          | exception Sys_error _ -> "unknown"))
  | sha -> sha

let write_out path ~header =
  let field (k, v) = Printf.sprintf "%s:%s" (Span.json_string k) v in
  let floats xs = "[" ^ String.concat "," (List.map number xs) ^ "]" in
  let metrics =
    List.rev_map
      (fun name ->
        let { unit; v; n } = Hashtbl.find values name in
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s,\"n\":%d}" (Span.json_string name)
          (if Float.is_finite v then number v else "null")
          (Span.json_string unit) n)
      !order
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"header\":{%s},\n\
         \"correct\":%b,\"attempted\":%d,\"failed\":%d,\n\
         \"metrics\":{%s},\n\
         \"samples\":{%s}}\n"
        (String.concat "," (List.map field header))
        (correct ()) (Atomic.get attempted) (Atomic.get failed)
        (String.concat ",\n" metrics)
        (String.concat ",\n"
           (List.rev_map (fun (k, xs) -> field (k, floats xs)) !samples)))
