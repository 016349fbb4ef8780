type fu_spec = {
  latency : int;
  pipelined : bool;
  area_um2 : float;
  leakage_mw : float;
  dynamic_pj : float;
}

type t = {
  profile_name : string;
  node_nm : int;
  cycle_time_ns : float;
  specs : fu_spec Fu.Map.t;
  reg_area_um2_per_bit : float;
  reg_leak_mw_per_bit : float;
  reg_read_pj_per_bit : float;
  reg_write_pj_per_bit : float;
}

(* Representative 40 nm standard-cell characteristics. Latencies follow
   the paper's defaults: 3-stage FP adders and multipliers, single-cycle
   integer arithmetic and logic, long-latency dividers. *)
let default_specs =
  [
    (Fu.Int_adder, { latency = 1; pipelined = true; area_um2 = 480.0; leakage_mw = 0.0035; dynamic_pj = 0.14 });
    (Fu.Int_multiplier, { latency = 3; pipelined = true; area_um2 = 4200.0; leakage_mw = 0.018; dynamic_pj = 1.2 });
    (Fu.Int_divider, { latency = 12; pipelined = false; area_um2 = 6800.0; leakage_mw = 0.026; dynamic_pj = 3.1 });
    (Fu.Shifter, { latency = 1; pipelined = true; area_um2 = 410.0; leakage_mw = 0.0028; dynamic_pj = 0.08 });
    (Fu.Bitwise, { latency = 1; pipelined = true; area_um2 = 220.0; leakage_mw = 0.0015; dynamic_pj = 0.04 });
    (Fu.Mux, { latency = 1; pipelined = true; area_um2 = 160.0; leakage_mw = 0.0012; dynamic_pj = 0.03 });
    (Fu.Converter, { latency = 2; pipelined = true; area_um2 = 1900.0; leakage_mw = 0.009; dynamic_pj = 0.9 });
    (Fu.Fp_add_sp, { latency = 3; pipelined = true; area_um2 = 8100.0; leakage_mw = 0.033; dynamic_pj = 3.9 });
    (Fu.Fp_add_dp, { latency = 3; pipelined = true; area_um2 = 14200.0; leakage_mw = 0.058; dynamic_pj = 7.4 });
    (Fu.Fp_mul_sp, { latency = 3; pipelined = true; area_um2 = 12900.0; leakage_mw = 0.055; dynamic_pj = 7.1 });
    (Fu.Fp_mul_dp, { latency = 3; pipelined = true; area_um2 = 24500.0; leakage_mw = 0.104; dynamic_pj = 14.2 });
    (Fu.Fp_div_sp, { latency = 12; pipelined = false; area_um2 = 17800.0; leakage_mw = 0.071; dynamic_pj = 19.5 });
    (Fu.Fp_div_dp, { latency = 18; pipelined = false; area_um2 = 33000.0; leakage_mw = 0.128; dynamic_pj = 38.0 });
    (Fu.Fp_special, { latency = 20; pipelined = false; area_um2 = 41000.0; leakage_mw = 0.16; dynamic_pj = 52.0 });
  ]

let default_40nm =
  {
    profile_name = "salam-40nm@2ns";
    node_nm = 40;
    cycle_time_ns = 2.0;
    specs = List.fold_left (fun m (k, v) -> Fu.Map.add k v m) Fu.Map.empty default_specs;
    reg_area_um2_per_bit = 5.9;
    reg_leak_mw_per_bit = 0.00021;
    reg_read_pj_per_bit = 0.0035;
    reg_write_pj_per_bit = 0.0048;
  }

(* structural equality that ignores the spec map's internal tree shape *)
let equal a b =
  a.profile_name = b.profile_name
  && a.node_nm = b.node_nm
  && a.cycle_time_ns = b.cycle_time_ns
  && Fu.Map.equal ( = ) a.specs b.specs
  && a.reg_area_um2_per_bit = b.reg_area_um2_per_bit
  && a.reg_leak_mw_per_bit = b.reg_leak_mw_per_bit
  && a.reg_read_pj_per_bit = b.reg_read_pj_per_bit
  && a.reg_write_pj_per_bit = b.reg_write_pj_per_bit

let spec t cls =
  match Fu.Map.find_opt cls t.specs with
  | Some s -> s
  | None -> invalid_arg ("Profile.spec: no spec for " ^ Fu.to_string cls)

let with_latency t cls latency =
  let s = spec t cls in
  { t with specs = Fu.Map.add cls { s with latency } t.specs }

let instr_latency t instr =
  match Fu.of_instr instr with
  | Some cls -> (spec t cls).latency
  | None -> (
      match instr with
      | Salam_ir.Ast.Cast _ | Salam_ir.Ast.Gep _ | Salam_ir.Ast.Phi _ -> 0 (* pure wiring *)
      | _ -> 1 (* control evaluation *))
