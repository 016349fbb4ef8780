open Salam_sim
module Trace = Salam_obs.Trace

type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  tr : Trace.sink option;  (** captured at [create]; [None] = tracing off *)
  buf_name : string;
  capacity_bytes : int;
  fifo : char Queue.t;
  pending_pushes : (Bytes.t * (unit -> unit)) Queue.t;
  pending_pops : (int * (Bytes.t -> unit)) Queue.t;
  s_pushes : Stats.scalar;
  s_pops : Stats.scalar;
  s_full_stalls : Stats.scalar;
  s_empty_stalls : Stats.scalar;
}

let create kernel clock stats ~name ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Stream_buffer.create: capacity must be positive";
  let group = Stats.group ~parent:stats name in
  {
    kernel;
    clock;
    tr = Kernel.trace kernel;
    buf_name = name;
    capacity_bytes;
    fifo = Queue.create ();
    pending_pushes = Queue.create ();
    pending_pops = Queue.create ();
    s_pushes = Stats.scalar group "pushes";
    s_pops = Stats.scalar group "pops";
    s_full_stalls = Stats.scalar group "full_stalls";
    s_empty_stalls = Stats.scalar group "empty_stalls";
  }

let occupancy t = Queue.length t.fifo

let emit t cat ~detail ~size =
  match t.tr with
  | Some tr when Trace.wants tr cat ->
      Trace.emit tr ~tick:(Kernel.now t.kernel) ~comp:t.buf_name ~cat ~detail
        [
          ("size", Trace.I (Int64.of_int size));
          ("occ", Trace.I (Int64.of_int (Queue.length t.fifo)));
        ]
  | Some _ | None -> ()

(* Move as many queued pushes and pops as possible; every state change
   can unblock the other side, so iterate to quiescence. *)
let rec settle t =
  let progress = ref false in
  (match Queue.peek_opt t.pending_pushes with
  | Some (data, on_accepted)
    when Queue.length t.fifo + Bytes.length data <= t.capacity_bytes ->
      ignore (Queue.pop t.pending_pushes);
      Bytes.iter (fun c -> Queue.add c t.fifo) data;
      Stats.incr t.s_pushes;
      emit t Trace.Stream_push ~detail:"-" ~size:(Bytes.length data);
      Clock.schedule_cycles t.clock ~cycles:1 on_accepted;
      progress := true
  | _ -> ());
  (match Queue.peek_opt t.pending_pops with
  | Some (size, on_data) when Queue.length t.fifo >= size ->
      ignore (Queue.pop t.pending_pops);
      let data = Bytes.init size (fun _ -> Queue.pop t.fifo) in
      Stats.incr t.s_pops;
      emit t Trace.Stream_pop ~detail:"-" ~size;
      Clock.schedule_cycles t.clock ~cycles:1 (fun () -> on_data data);
      progress := true
  | _ -> ());
  if !progress then settle t

let push t data ~on_accepted =
  if Bytes.length data > t.capacity_bytes then
    invalid_arg (t.buf_name ^ ": push larger than FIFO capacity");
  if
    Queue.length t.fifo + Bytes.length data > t.capacity_bytes
    || not (Queue.is_empty t.pending_pushes)
  then begin
    Stats.incr t.s_full_stalls;
    emit t Trace.Stream_stall ~detail:"full" ~size:(Bytes.length data)
  end;
  Queue.add (data, on_accepted) t.pending_pushes;
  settle t

let pop t ~size ~on_data =
  if size > t.capacity_bytes then invalid_arg (t.buf_name ^ ": pop larger than FIFO capacity");
  if Queue.length t.fifo < size || not (Queue.is_empty t.pending_pops) then begin
    Stats.incr t.s_empty_stalls;
    emit t Trace.Stream_stall ~detail:"empty" ~size
  end;
  Queue.add (size, on_data) t.pending_pops;
  settle t

(* --- checkpointing ----------------------------------------------------- *)

(* The FIFO carries real payload bytes — the one component besides the
   backing memory whose checkpoint section holds data. Pending handshake
   halves are in-flight timing state and must have drained. *)
let quiesce t ~what =
  let fail fmt = Printf.ksprintf (fun s -> raise (Checkpoint.Invalid s)) fmt in
  if not (Queue.is_empty t.pending_pushes) then
    fail "%s: %s with %d push(es) pending" t.buf_name what (Queue.length t.pending_pushes);
  if not (Queue.is_empty t.pending_pops) then
    fail "%s: %s with %d pop(s) pending" t.buf_name what (Queue.length t.pending_pops)

let checkpoint_agent t =
  {
    Checkpoint.agent_name = t.buf_name;
    capture =
      (fun () ->
        quiesce t ~what:"checkpoint capture";
        let buf = Buffer.create (Queue.length t.fifo) in
        Queue.iter (Buffer.add_char buf) t.fifo;
        [ ("data", Checkpoint.Blob (Buffer.contents buf)) ]);
    restore =
      (fun sec ->
        quiesce t ~what:"checkpoint restore";
        let data = Checkpoint.find_blob sec "data" in
        if String.length data > t.capacity_bytes then
          raise
            (Checkpoint.Invalid
               (Printf.sprintf "%s: snapshot holds %d bytes but FIFO capacity is %d" t.buf_name
                  (String.length data) t.capacity_bytes));
        Queue.clear t.fifo;
        String.iter (fun c -> Queue.add c t.fifo) data);
  }
