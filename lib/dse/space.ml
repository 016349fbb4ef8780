type axis =
  | Memory of Point.memory_kind list
  | Read_ports of int list
  | Write_ports of int list
  | Banks of int list
  | Cache_bytes of int list
  | Fu_limit of int list
  | Unroll of int list
  | Junroll of int list
  | Clock_mhz of float list
  | Cycle_time_ns of float list
      (** hardware-profile cycle time; applying it also sets the point's
          clock to the matching frequency so timing and characterization
          stay in agreement *)
  | Node of int list
  | Hw_db of string list  (** database content hashes ([Salam_config.hash]) *)

let axis_name = function
  | Memory _ -> "memory"
  | Read_ports _ -> "read_ports"
  | Write_ports _ -> "write_ports"
  | Banks _ -> "banks"
  | Cache_bytes _ -> "cache_bytes"
  | Fu_limit _ -> "fu_limit"
  | Unroll _ -> "unroll"
  | Junroll _ -> "junroll"
  | Clock_mhz _ -> "clock_mhz"
  | Cycle_time_ns _ -> "cycle_time_ns"
  | Node _ -> "node_nm"
  | Hw_db _ -> "hw_db"

let axis_length = function
  | Memory l -> List.length l
  | Read_ports l | Write_ports l | Banks l | Cache_bytes l | Fu_limit l | Unroll l
  | Junroll l | Node l ->
      List.length l
  | Clock_mhz l | Cycle_time_ns l -> List.length l
  | Hw_db l -> List.length l

(* one branch of the cartesian product: all assignments of this axis *)
let apply_axis (p : Point.t) = function
  | Memory ms -> List.map (fun memory -> { p with Point.memory }) ms
  | Read_ports vs -> List.map (fun read_ports -> { p with Point.read_ports }) vs
  | Write_ports vs -> List.map (fun write_ports -> { p with Point.write_ports }) vs
  | Banks vs -> List.map (fun banks -> { p with Point.banks }) vs
  | Cache_bytes vs -> List.map (fun cache_bytes -> { p with Point.cache_bytes }) vs
  | Fu_limit vs -> List.map (fun fu_limit -> { p with Point.fu_limit }) vs
  | Unroll vs -> List.map (fun unroll -> { p with Point.unroll }) vs
  | Junroll vs -> List.map (fun junroll -> { p with Point.junroll }) vs
  | Clock_mhz vs -> List.map (fun clock_mhz -> { p with Point.clock_mhz }) vs
  | Cycle_time_ns vs ->
      List.map
        (fun cycle_time_ns ->
          {
            p with
            Point.cycle_time_ns;
            clock_mhz = Salam_config.clock_mhz_of_cycle_time cycle_time_ns;
          })
        vs
  | Node vs -> List.map (fun node_nm -> { p with Point.node_nm }) vs
  | Hw_db vs -> List.map (fun hw_db -> { p with Point.hw_db }) vs

type t = {
  base : Point.t;
  axes : axis list;
  derive : Point.t -> Point.t;
}

let create ?(base = Point.default) ?(derive = Fun.id) axes =
  List.iter
    (fun a ->
      if axis_length a = 0 then
        invalid_arg (Printf.sprintf "Space.create: axis %s has no values" (axis_name a)))
    axes;
  { base; axes; derive }

let dedup points =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p then false
      else begin
        Hashtbl.add seen p ();
        true
      end)
    points

let enumerate t =
  let product =
    List.fold_left
      (fun points axis -> List.concat_map (fun p -> apply_axis p axis) points)
      [ t.base ] t.axes
  in
  dedup (List.map (fun p -> Point.canonical (t.derive p)) product)

let enumerate_all spaces = dedup (List.concat_map enumerate spaces)

let spm_balanced (p : Point.t) =
  match p.Point.memory with
  | Point.Spm ->
      {
        p with
        Point.write_ports = max 1 (p.Point.read_ports / 2);
        banks = 2 * p.Point.read_ports;
      }
  | Point.Cache | Point.Dram -> p
