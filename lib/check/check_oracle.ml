open Salam_ir
module W = Salam_workloads.Workload

type provenance = {
  p_block : string;
  p_instr : string;
  p_addr : int64;
  p_size : int;
}

type divergence = {
  d_buffer : string;
  d_offset : int;
  d_interp : int64;
  d_engine : int64;
  d_store : provenance option;
}

type failure =
  | Divergence of divergence
  | Mode_divergence of divergence
      (** compiled-vs-dynamic: [d_interp] holds the dynamic-mode word and
          [d_engine] the compiled-mode word *)
  | Mode_mismatch of string
      (** compiled-vs-dynamic: stats, return value or trace streams differ *)
  | Interp_golden_failed
  | Engine_golden_failed
  | Harness_error of string

type report = { r_workload : string; r_result : (unit, failure) result }

let provenance_to_string = function
  | Some p ->
      Printf.sprintf " (last interpreter store covering it: %%%s, %s, addr %Ld size %d)"
        p.p_block p.p_instr p.p_addr p.p_size
  | None -> " (no interpreter store ever covered this byte)"

let failure_to_string = function
  | Divergence d ->
      Printf.sprintf
        "buffer %s diverges at byte offset %d: interp word %016Lx, engine word %016Lx%s"
        d.d_buffer d.d_offset d.d_interp d.d_engine
        (provenance_to_string d.d_store)
  | Mode_divergence d ->
      Printf.sprintf
        "compiled-vs-dynamic: buffer %s diverges at byte offset %d: dynamic word %016Lx, \
         compiled word %016Lx%s"
        d.d_buffer d.d_offset d.d_interp d.d_engine
        (provenance_to_string d.d_store)
  | Mode_mismatch msg -> "compiled-vs-dynamic: " ^ msg
  | Interp_golden_failed -> "interpreter output fails the workload's golden model"
  | Engine_golden_failed -> "engine output fails the workload's golden model"
  | Harness_error msg -> msg

(* Interpreter-side run, recording per-store provenance through the
   [on_exec] hook: for every executed store we keep the block, the
   printed instruction and the resolved address/size, newest first, so a
   divergent byte can be traced to the last store that wrote it. *)
let run_interp ~seed ?func (w : W.t) =
  let func = match func with Some f -> f | None -> W.compile w in
  let mem = Memory.create ~size:(max (1 lsl 22) (4 * W.total_buffer_bytes w)) in
  let bases = W.alloc_buffers w mem in
  w.W.init (Salam_sim.Rng.create seed) mem bases;
  let stores = ref [] in
  let on_exec (ev : Interp.event) =
    match ev.Interp.ev_instr with
    | Ast.Store { src; _ } -> (
        (* operand order mirrors [Ast.used_values]: value, then address *)
        match ev.Interp.ev_operands with
        | [ _value; addr ] ->
            stores :=
              {
                p_block = ev.Interp.ev_block;
                p_instr = Format.asprintf "%a" Pp.instr ev.Interp.ev_instr;
                p_addr = Bits.to_int64 addr;
                p_size = Ty.size_bytes (Ast.value_ty src);
              }
              :: !stores
        | _ -> ())
    | _ -> ()
  in
  let m = { Ast.funcs = [ func ]; globals = [] } in
  let ret = Interp.run ~on_exec mem m ~entry:func.Ast.fname ~args:(W.args w ~bases) in
  (mem, bases, ret, !stores)

(* little-endian word value of up to 8 bytes starting at [off] *)
let word_at mem base off len =
  let b = Memory.load_bytes mem (Int64.add base (Int64.of_int off)) len in
  let v = ref 0L in
  for k = len - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b k)))
  done;
  !v

let covering_store stores addr =
  List.find_opt
    (fun p ->
      Int64.compare p.p_addr addr <= 0
      && Int64.compare addr (Int64.add p.p_addr (Int64.of_int p.p_size)) < 0)
    stores

(* Word-for-word comparison of every buffer at matching relative
   offsets; returns the first divergent 8-byte word with provenance. *)
let first_divergence (w : W.t) ~interp_mem ~interp_bases ~engine_mem ~engine_bases ~stores =
  let rec buffers i = function
    | [] -> None
    | (bname, bytes) :: rest -> (
        let ib = interp_bases.(i) and eb = engine_bases.(i) in
        let rec words off =
          if off >= bytes then None
          else
            let len = min 8 (bytes - off) in
            let iw = word_at interp_mem ib off len in
            let ew = word_at engine_mem eb off len in
            if Int64.equal iw ew then words (off + 8)
            else begin
              (* locate the first divergent byte inside the word for
                 provenance (the interpreter's address space) *)
              let byte = ref off in
              (try
                 for k = 0 to len - 1 do
                   let m = Int64.shift_right_logical (Int64.logxor iw ew) (8 * k) in
                   if Int64.logand m 0xFFL <> 0L then begin
                     byte := off + k;
                     raise Exit
                   end
                 done
               with Exit -> ());
              let addr = Int64.add ib (Int64.of_int !byte) in
              Some
                {
                  d_buffer = bname;
                  d_offset = off;
                  d_interp = iw;
                  d_engine = ew;
                  d_store = covering_store stores addr;
                }
            end
        in
        match words 0 with Some d -> Some d | None -> buffers (i + 1) rest)
  in
  buffers 0 w.W.buffers

let check_workload ?(config = Salam.Config.default) ?func ?engine_func ?trace (w : W.t) =
  (* [engine_func] substitutes a different function on the engine side
     only — how the fuzzer's planted-bug mode makes the two sides
     genuinely disagree. The config's clock and hardware profile change
     only the engine's timing model; the functional interpreter is
     timing-free, which is exactly why the oracle can vouch for a
     non-default characterization. *)
  let engine_func = match engine_func with Some f -> Some f | None -> func in
  match
    let interp_mem, interp_bases, _iret, stores = run_interp ~seed:config.Salam.Config.seed ?func w in
    let er = Check_harness.run_engine ~config ?func:engine_func ?trace w in
    match
      first_divergence w ~interp_mem ~interp_bases ~engine_mem:er.Check_harness.memory
        ~engine_bases:er.Check_harness.bases ~stores
    with
    | Some d -> Error (Divergence d)
    | None ->
        if not (w.W.check interp_mem interp_bases) then Error Interp_golden_failed
        else if not (w.W.check er.Check_harness.memory er.Check_harness.bases) then
          Error Engine_golden_failed
        else Ok ()
  with
  | result -> result
  | exception Interp.Trap msg -> Error (Harness_error ("interpreter trap: " ^ msg))
  | exception Salam_engine.Engine.Invariant_violation msg ->
      Error (Harness_error ("engine invariant violation: " ^ msg))
  | exception Salam_engine.Engine.Runtime_error msg ->
      Error (Harness_error ("engine runtime error: " ^ msg))
  | exception Failure msg -> Error (Harness_error msg)

(* Compiled-vs-dynamic differential: the schedule-specialization replay
   must be bit-identical to the fully dynamic engine — same store
   contents, same return value, same statistics (cycles included) and
   the same trace event stream. Store provenance for a divergent byte
   still comes from an interpreter run: both engine modes are suspect,
   the functional semantics are not. *)
let check_modes ?(config = Salam.Config.default) ?func ?trace (w : W.t) =
  let module Engine = Salam_engine.Engine in
  let module Trace = Salam_obs.Trace in
  let in_mode mode =
    { config with Salam.Config.engine = { config.Salam.Config.engine with Engine.mode } }
  in
  match
    let _, _, _, stores = run_interp ~seed:config.Salam.Config.seed ?func w in
    let tr_dyn = Trace.create () in
    let tr_cmp = match trace with Some tr -> tr | None -> Trace.create () in
    let dr = Check_harness.run_engine ~config:(in_mode Engine.Dynamic) ?func ~trace:tr_dyn w in
    let cr = Check_harness.run_engine ~config:(in_mode Engine.Compiled) ?func ~trace:tr_cmp w in
    match
      first_divergence w ~interp_mem:dr.Check_harness.memory
        ~interp_bases:dr.Check_harness.bases ~engine_mem:cr.Check_harness.memory
        ~engine_bases:cr.Check_harness.bases ~stores
    with
    | Some d -> Error (Mode_divergence d)
    | None ->
        let ds = dr.Check_harness.stats and cs = cr.Check_harness.stats in
        if not (Int64.equal ds.Engine.cycles cs.Engine.cycles) then
          Error
            (Mode_mismatch
               (Printf.sprintf "cycle counts differ: dynamic %Ld, compiled %Ld"
                  ds.Engine.cycles cs.Engine.cycles))
        else if ds <> cs then Error (Mode_mismatch "run statistics differ")
        else if dr.Check_harness.ret <> cr.Check_harness.ret then
          Error (Mode_mismatch "return values differ")
        else if trace <> None then
          (* an external (possibly ring-bounded) sink replaced ours on the
             compiled run — its lines are not comparable to the unbounded
             dynamic stream, and replay callers only want the event tail *)
          Ok ()
        else begin
          (* every category describes simulated behaviour, so the two
             modes must agree line for line *)
          match Trace.first_divergence (Trace.to_lines tr_dyn) (Trace.to_lines tr_cmp) with
          | Some d ->
              Error (Mode_mismatch ("trace streams diverge: " ^ Trace.divergence_to_string d))
          | None -> Ok ()
        end
  with
  | result -> result
  | exception Interp.Trap msg -> Error (Harness_error ("interpreter trap: " ^ msg))
  | exception Salam_engine.Engine.Invariant_violation msg ->
      Error (Harness_error ("engine invariant violation: " ^ msg))
  | exception Salam_engine.Engine.Runtime_error msg ->
      Error (Harness_error ("engine runtime error: " ^ msg))
  | exception Failure msg -> Error (Harness_error msg)

let check_all ?config workloads =
  List.map
    (fun (w : W.t) -> { r_workload = w.W.name; r_result = check_workload ?config w })
    workloads
