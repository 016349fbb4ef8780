type objectives = { time_s : float; power_mw : float; area_um2 : float }

(* (simulated seconds, total mW, area um2) *)
let objectives (m : Measurement.t) =
  {
    time_s = m.Measurement.seconds;
    power_mw = m.Measurement.total_mw;
    area_um2 = m.Measurement.area_um2;
  }

let dominates a b =
  a.time_s <= b.time_s && a.power_mw <= b.power_mw && a.area_um2 <= b.area_um2
  && (a.time_s < b.time_s || a.power_mw < b.power_mw || a.area_um2 < b.area_um2)

let partition ms =
  let correct, incorrect = List.partition (fun m -> m.Measurement.correct) ms in
  let front, dominated =
    List.partition
      (fun m ->
        let o = objectives m in
        not (List.exists (fun m' -> m' != m && dominates (objectives m') o) correct))
      correct
  in
  (front, dominated @ incorrect)

let front ms = fst (partition ms)

(* --- renderers ---------------------------------------------------------- *)

let csv_header =
  "workload,fingerprint,memory,read_ports,write_ports,banks,cache_bytes,fu_limit,unroll,junroll,clock_mhz,cycles,time_us,datapath_mw,total_mw,area_um2,stall_pct,fmul_occupancy,correct"

let csv_row (m : Measurement.t) =
  let p = m.Measurement.point in
  Printf.sprintf "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%.17g,%Ld,%.6f,%.6f,%.6f,%.6f,%.3f,%.6f,%b"
    m.Measurement.workload
    (Point.fingerprint_hex m.Measurement.fp)
    (Point.memory_kind_to_string p.Point.memory)
    p.Point.read_ports p.Point.write_ports p.Point.banks p.Point.cache_bytes
    p.Point.fu_limit p.Point.unroll p.Point.junroll p.Point.clock_mhz
    m.Measurement.cycles
    (m.Measurement.seconds *. 1e6)
    m.Measurement.datapath_mw m.Measurement.total_mw m.Measurement.area_um2
    (100.0
    *. float_of_int m.Measurement.stall_cycles
    /. float_of_int (max 1 m.Measurement.active_cycles))
    m.Measurement.fmul_occupancy m.Measurement.correct

let to_csv ms = String.concat "\n" (csv_header :: List.map csv_row ms) ^ "\n"

let pp fmt ~front ~dominated =
  Format.fprintf fmt "Pareto front (%d of %d points):@." (List.length front)
    (List.length front + List.length dominated);
  Measurement.pp_header fmt ();
  let by_time =
    List.sort
      (fun a b -> Float.compare a.Measurement.seconds b.Measurement.seconds)
      front
  in
  List.iter (Measurement.pp_row fmt) by_time;
  if dominated <> [] then
    Format.fprintf fmt "(%d dominated or incorrect points pruned)@."
      (List.length dominated)
