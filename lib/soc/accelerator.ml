open Salam_sim
open Salam_ir
module Engine = Salam_engine.Engine
module Datapath = Salam_cdfg.Datapath

(* The datapath and the engine are elaborated at first use, normally the
   first launch: a system that is only warmed up through the interpreter
   and snapshotted never builds them, and a system restored from a
   snapshot builds them fresh at its first launch, so no engine state
   needs restoring. *)
type t = {
  acc_name : string;
  comm : Comm_interface.t;
  engine : Engine.t Lazy.t;
  datapath : Datapath.t Lazy.t;
  clock : Clock.t;
}

let decode_arg (p : Ast.var) raw =
  match p.ty with
  | Ty.F32 -> Bits.Float (Int32.float_of_bits (Int64.to_int32 raw))
  | Ty.F64 -> Bits.Float (Int64.float_of_bits raw)
  | Ty.I1 | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.Ptr -> Bits.truncate p.ty (Bits.Int raw)
  | Ty.Void -> invalid_arg "Accelerator: void parameter"

let write_end_state t ret =
  (match ret with
  | Some (Bits.Int i) -> Comm_interface.write_mmr t.comm Comm_interface.Layout.ret_value i
  | Some (Bits.Float f) ->
      Comm_interface.write_mmr t.comm Comm_interface.Layout.ret_value (Int64.bits_of_float f)
  | None -> ());
  Comm_interface.write_mmr t.comm Comm_interface.Layout.status 2L

let launch t ~args ~on_done =
  Comm_interface.write_mmr t.comm Comm_interface.Layout.status 1L;
  Engine.start (Lazy.force t.engine) ~args ~on_finish:(fun ret ->
      write_end_state t ret;
      Comm_interface.raise_interrupt t.comm;
      on_done ret)

let create system ~name ~clock_mhz ?(profile = Salam_hw.Profile.default_40nm) ?(fu_limits = [])
    ?(engine_config = Engine.default_config) (func : Ast.func) =
  let clock = System.clock system ~mhz:clock_mhz in
  let datapath = lazy (Datapath.build ~profile ~limits:fu_limits func) in
  let n_args = List.length func.Ast.params in
  let comm = Comm_interface.create system ~name ~clock ~mmr_words:(3 + max 1 n_args) in
  (* registered now, so the tree's shape does not depend on when (or
     whether) the engine is elaborated *)
  let stats = Salam_sim.Stats.group ~parent:(System.stats system) (name ^ ".engine") in
  let engine =
    lazy
      (Engine.create (System.kernel system) clock ~config:engine_config ~stats
         ~datapath:(Lazy.force datapath) ~mem:(Comm_interface.mem_iface comm) ())
  in
  let t = { acc_name = name; comm; engine; datapath; clock } in
  (* control-register starts: decode the argument MMRs and launch *)
  Comm_interface.on_control_write comm (fun value ->
      if Int64.logand value 1L = 1L && not (Engine.running (Lazy.force engine)) then begin
        let args =
          List.mapi
            (fun i p -> decode_arg p (Comm_interface.read_mmr comm (Comm_interface.Layout.arg i)))
            func.Ast.params
        in
        launch t ~args ~on_done:ignore
      end);
  t

let name t = t.acc_name

let comm t = t.comm

let engine t = Lazy.force t.engine

let datapath t = Lazy.force t.datapath

let clock t = t.clock

let add_ordered_range t ~base ~size = Engine.add_ordered_range (engine t) ~base ~size

let stats t = Engine.stats (engine t)
