(* Structured, zero-cost-when-off tracing for the timing stack.

   Components hold a [sink option] captured at construction time; with
   tracing disabled that field is [None] and every emission site is a
   single always-not-taken branch, so the hot loop stays
   branch-predictable. A site tests [wants] before it builds its
   payload, so a sink that records none of its categories allocates
   nothing there either. With tracing enabled, each event is a compact
   (tick, component, category, detail, payload) record appended to an
   in-memory buffer — optionally a bounded ring, for always-on capture
   such as the fuzzer's crash dumps.

   This module deliberately depends on nothing above the standard
   library so that the simulation kernel itself can carry the sink. *)

type category =
  | Engine_issue
  | Engine_execute
  | Engine_writeback
  | Engine_stall
  | Fu_occupancy
  | Cache_hit
  | Cache_miss
  | Cache_fill
  | Cache_evict
  | Dma_burst_start
  | Dma_burst_end
  | Spm_access
  | Spm_conflict
  | Xbar_route
  | Xbar_contention
  | Stream_push
  | Stream_pop
  | Stream_stall
  | Mmr_write
  | Interrupt
  | Dram_access

let all_categories =
  [
    Engine_issue;
    Engine_execute;
    Engine_writeback;
    Engine_stall;
    Fu_occupancy;
    Cache_hit;
    Cache_miss;
    Cache_fill;
    Cache_evict;
    Dma_burst_start;
    Dma_burst_end;
    Spm_access;
    Spm_conflict;
    Xbar_route;
    Xbar_contention;
    Stream_push;
    Stream_pop;
    Stream_stall;
    Mmr_write;
    Interrupt;
    Dram_access;
  ]

let category_index = function
  | Engine_issue -> 0
  | Engine_execute -> 1
  | Engine_writeback -> 2
  | Engine_stall -> 3
  | Fu_occupancy -> 4
  | Cache_hit -> 5
  | Cache_miss -> 6
  | Cache_fill -> 7
  | Cache_evict -> 8
  | Dma_burst_start -> 9
  | Dma_burst_end -> 10
  | Spm_access -> 11
  | Spm_conflict -> 12
  | Xbar_route -> 13
  | Xbar_contention -> 14
  | Stream_push -> 15
  | Stream_pop -> 16
  | Stream_stall -> 17
  | Mmr_write -> 18
  | Interrupt -> 19
  | Dram_access -> 20

let n_categories = List.length all_categories

let category_to_string = function
  | Engine_issue -> "engine.issue"
  | Engine_execute -> "engine.exec"
  | Engine_writeback -> "engine.wb"
  | Engine_stall -> "engine.stall"
  | Fu_occupancy -> "engine.fu"
  | Cache_hit -> "cache.hit"
  | Cache_miss -> "cache.miss"
  | Cache_fill -> "cache.fill"
  | Cache_evict -> "cache.evict"
  | Dma_burst_start -> "dma.start"
  | Dma_burst_end -> "dma.end"
  | Spm_access -> "spm.access"
  | Spm_conflict -> "spm.conflict"
  | Xbar_route -> "xbar.route"
  | Xbar_contention -> "xbar.busy"
  | Stream_push -> "stream.push"
  | Stream_pop -> "stream.pop"
  | Stream_stall -> "stream.stall"
  | Mmr_write -> "soc.mmr"
  | Interrupt -> "soc.irq"
  | Dram_access -> "dram.access"

let category_of_string s =
  List.find_opt (fun c -> category_to_string c = s) all_categories

type value = I of int64 | F of float | S of string

type event = {
  tick : int64;
  seq : int;  (** emission order; tie-break for events at equal ticks *)
  comp : string;
  cat : category;
  detail : string;
  args : (string * value) list;
}

type sink = {
  cat_on : bool array;
  ring : int option;
  buf : event Queue.t;
  mutable next_seq : int;
  mutable n_dropped : int;
}

let create ?ring ?(categories = all_categories) () =
  (match ring with
  | Some cap when cap <= 0 -> invalid_arg "Trace.create: ring capacity must be positive"
  | Some _ | None -> ());
  let cat_on = Array.make n_categories false in
  List.iter (fun c -> cat_on.(category_index c) <- true) categories;
  { cat_on; ring; buf = Queue.create (); next_seq = 0; n_dropped = 0 }

let wants sink cat = sink.cat_on.(category_index cat)

let emit sink ~tick ~comp ~cat ?(detail = "-") args =
  if sink.cat_on.(category_index cat) then begin
    Queue.add { tick; seq = sink.next_seq; comp; cat; detail; args } sink.buf;
    sink.next_seq <- sink.next_seq + 1;
    match sink.ring with
    | Some cap when Queue.length sink.buf > cap ->
        ignore (Queue.pop sink.buf);
        sink.n_dropped <- sink.n_dropped + 1
    | Some _ | None -> ()
  end

let count sink = Queue.length sink.buf

let dropped sink = sink.n_dropped

(* Canonical order: by tick, ties broken by emission order. A component
   that finalises a cycle retroactively (the engine's stall accounting)
   emits with the cycle-start tick after later-tick events may already
   be buffered, so a sort — stable by construction via [seq] — is part
   of the canonical form. *)
let events sink =
  let l = List.of_seq (Queue.to_seq sink.buf) in
  List.stable_sort
    (fun a b ->
      match Int64.compare a.tick b.tick with 0 -> compare a.seq b.seq | c -> c)
    l

(* --- filtering --------------------------------------------------------- *)

type filter = {
  f_comp : string option;  (** substring match on the component name *)
  f_from : int64 option;
  f_to : int64 option;
}

let no_filter = { f_comp = None; f_from = None; f_to = None }

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    for i = 0 to nh - nn do
      if (not !found) && String.sub hay i nn = needle then found := true
    done;
    !found
  end

let matches f ev =
  (match f.f_comp with None -> true | Some c -> contains_substring ev.comp c)
  && (match f.f_from with None -> true | Some t -> Int64.compare ev.tick t >= 0)
  && match f.f_to with None -> true | Some t -> Int64.compare ev.tick t <= 0

let filtered ?(filter = no_filter) sink = List.filter (matches filter) (events sink)

(* --- canonical text sink ----------------------------------------------- *)

let value_to_string = function
  | I i -> Int64.to_string i
  | F f -> Printf.sprintf "%h" f (* hex float: exact, locale-free *)
  | S s -> s

let line ev =
  let b = Buffer.create 64 in
  Buffer.add_string b (Int64.to_string ev.tick);
  Buffer.add_char b ' ';
  Buffer.add_string b ev.comp;
  Buffer.add_char b ' ';
  Buffer.add_string b (category_to_string ev.cat);
  Buffer.add_char b ' ';
  Buffer.add_string b ev.detail;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (value_to_string v))
    ev.args;
  Buffer.contents b

let to_lines ?filter sink = List.map line (filtered ?filter sink)

let to_text ?filter sink =
  match to_lines ?filter sink with
  | [] -> ""
  | lines -> String.concat "\n" lines ^ "\n"

let write_text oc ?filter sink = output_string oc (to_text ?filter sink)

(* --- Chrome trace-event JSON sink (Perfetto/chrome://tracing) ----------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_value = function
  | I i -> Int64.to_string i
  | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else Printf.sprintf "\"%h\"" f
  | S s -> "\"" ^ json_escape s ^ "\""

let json_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ json_value v) args)
  ^ "}"

(* ticks are picoseconds; Chrome trace [ts] is microseconds *)
let ts_of_tick tick = Printf.sprintf "%.6f" (Int64.to_float tick /. 1e6)

(* One row (thread) per component; DMA bursts become begin/end spans,
   FU occupancy becomes a counter track, everything else an instant. *)
let write_chrome_json oc evs =
  let tids = Hashtbl.create 16 in
  let order = ref [] in
  let tid comp =
    match Hashtbl.find_opt tids comp with
    | Some n -> n
    | None ->
        let n = Hashtbl.length tids + 1 in
        Hashtbl.add tids comp n;
        order := comp :: !order;
        n
  in
  List.iter (fun ev -> ignore (tid ev.comp)) evs;
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let item s =
    if !first then first := false else output_string oc ",";
    output_string oc "\n";
    output_string oc s
  in
  List.iter
    (fun comp ->
      item
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (tid comp) (json_escape comp)))
    (List.rev !order);
  List.iter
    (fun ev ->
      let name =
        if ev.detail = "-" then category_to_string ev.cat
        else category_to_string ev.cat ^ ":" ^ ev.detail
      in
      let common =
        Printf.sprintf "\"pid\":1,\"tid\":%d,\"ts\":%s" (tid ev.comp) (ts_of_tick ev.tick)
      in
      match ev.cat with
      | Dma_burst_start ->
          item
            (Printf.sprintf "{\"name\":\"burst\",\"cat\":\"dma\",\"ph\":\"B\",%s,\"args\":%s}"
               common (json_args ev.args))
      | Dma_burst_end ->
          item (Printf.sprintf "{\"name\":\"burst\",\"cat\":\"dma\",\"ph\":\"E\",%s}" common)
      | Fu_occupancy ->
          item
            (Printf.sprintf "{\"name\":\"fu:%s\",\"cat\":\"engine\",\"ph\":\"C\",%s,\"args\":%s}"
               (json_escape ev.detail) common (json_args ev.args))
      | _ ->
          item
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",%s,\"args\":%s}"
               (json_escape name)
               (json_escape (category_to_string ev.cat))
               common (json_args ev.args)))
    evs;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n"

(* --- gem5-style stats.txt sink ----------------------------------------- *)

(* paths padded to gem5's 50 columns, or to the longest path in the
   dump, so every value stays in one column *)
let write_stats_txt oc pairs =
  let width = List.fold_left (fun w (k, _) -> max w (String.length k)) 50 pairs in
  output_string oc "---------- Begin Simulation Statistics ----------\n";
  List.iter
    (fun (k, v) ->
      if Float.is_integer v && Float.abs v < 1e15 then Printf.fprintf oc "%-*s %20.0f\n" width k v
      else Printf.fprintf oc "%-*s %20.6f\n" width k v)
    pairs;
  output_string oc "---------- End Simulation Statistics   ----------\n"

(* --- trace diff -------------------------------------------------------- *)

type divergence = { at_line : int; left : string option; right : string option }

let first_divergence (a : string list) (b : string list) =
  let rec go n a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
        if String.equal x y then go (n + 1) a' b'
        else Some { at_line = n; left = Some x; right = Some y }
    | x :: _, [] -> Some { at_line = n; left = Some x; right = None }
    | [], y :: _ -> Some { at_line = n; left = None; right = Some y }
  in
  go 1 a b

let divergence_to_string d =
  let side tag = function
    | Some l -> Printf.sprintf "  %s: %s" tag l
    | None -> Printf.sprintf "  %s: <end of trace>" tag
  in
  Printf.sprintf "first divergence at line %d:\n%s\n%s" d.at_line (side "left " d.left)
    (side "right" d.right)
