(* Host-time spans recorded around the benchmark's own calls into each
   layer. Spans stay in memory until the run ends, then render as
   Chrome trace-event JSON (loadable in Perfetto beside [salam_trace
   --format json] output) and as a self-time table.

   A span context is an int: the id of the enclosing span, 0 at the
   root, or [off] when the current operation is untraced — so an
   untraced call costs one comparison. *)

type t = {
  id : int;
  name : string;
  parent : int;
  req : int;  (** operation the span belongs to; spans of one request share it *)
  tid : int;
  t0 : float;
  t1 : float;
}

let off = -1

let lock = Mutex.create ()

let recorded : t list ref = ref []

let next_id = Atomic.make 1

let span ?(req = 0) parent name f =
  if parent < 0 then f off
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Stat.now () in
    Fun.protect
      ~finally:(fun () ->
        let s = { id; name; parent; req; tid = Thread.id (Thread.self ()); t0; t1 = Stat.now () } in
        Mutex.protect lock (fun () -> recorded := s :: !recorded))
      (fun () -> f id)
  end

let root ?req traced name f = span ?req (if traced then 0 else off) name f

(* Everything recorded so far, oldest first. *)
let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let dur s = s.t1 -. s.t0

(* Self time per span name: each span's duration minus the part its
   children cover. Over a set of complete trees the self times sum to
   the roots' total duration exactly. Returned in first-seen order. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent > 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      match Hashtbl.find_opt totals s.name with
      | Some (t, n) -> Hashtbl.replace totals s.name (t +. self, n + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace totals s.name (self, 1))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let whole spans =
  Stat.sum (List.filter_map (fun s -> if s.parent = 0 then Some (dur s) else None) spans)

(* A JSON string literal, escaped by the store's codec: [encode] renders
   {"<s>":true}, and the key is the literal. *)
let json_string s =
  let o = Salam_dse.Jsonl.encode [ (s, Salam_dse.Jsonl.Bool true) ] in
  String.sub o 1 (String.length o - 7)

let write_chrome path ~process spans =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let pid = Unix.getpid () in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}"
        pid (json_string process);
      List.iter
        (fun s ->
          Printf.fprintf oc
            ",\n\
             {\"name\":%s,\"cat\":\"host\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
             \"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
            (json_string s.name)
            ((s.t0 -. base) *. 1e6)
            (dur s *. 1e6) pid s.tid s.id s.parent s.req)
        spans;
      output_string oc "\n]}\n")
