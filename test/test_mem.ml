(* Tests for the memory system: scratchpads, caches, crossbars, DRAM,
   DMA engines and stream buffers. *)

open Salam_sim
open Salam_mem

let check = Alcotest.check

let fresh () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~freq_mhz:1000.0 in
  let stats = Stats.group "test" in
  (kernel, clock, stats)

(* a request as (direction, int address, size), completed through a
   closure: the tests' stand-in for a requester's slot tables *)
let req op ~addr ~size = (op, Int64.to_int addr, size)

let send port (op, addr, size) done_ = Port.send_fn port op ~addr ~size done_

let push sb data ~on_accepted =
  Stream_buffer.push sb data 0 (Bytes.length data) (fun _ -> on_accepted ()) 0

let pop sb ~size ~on_data =
  let dst = Bytes.create size in
  Stream_buffer.pop sb ~size dst 0 (fun _ -> on_data dst) 0

(* A device counter, read from the stats tree it registers into:
   [path] is relative to [stats], e.g. ["spm.bank_conflicts"]. *)
let stat stats path =
  match
    Stats.fold stats ~init:None ~f:(fun acc ~path:p v -> if p = path then Some v else acc)
  with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "no statistic %s" path

(* --- SPM -------------------------------------------------------------- *)

let test_spm_latency () =
  let kernel, clock, stats = fresh () in
  let spm =
    Spm.create kernel clock stats
      { (Spm.default_config ~name:"spm" ~base:0L ~size:1024) with Spm.latency = 3 }
  in
  let done_cycle = ref (-1L) in
  send (Spm.port spm)
    (req Packet.Read ~addr:64L ~size:8)
    (fun () -> done_cycle := Clock.current_cycle clock);
  ignore (Kernel.run kernel);
  check Alcotest.int64 "service next edge + 3 cycles" 3L !done_cycle;
  check Alcotest.int "one read counted" 1 (Spm.reads spm)

let test_spm_port_throughput () =
  let kernel, clock, stats = fresh () in
  let spm =
    Spm.create kernel clock stats
      {
        (Spm.default_config ~name:"spm" ~base:0L ~size:4096) with
        Spm.read_ports = 2;
        banks = 8;
        latency = 1;
      }
  in
  let completions = ref [] in
  for k = 0 to 7 do
    send (Spm.port spm)
      (req Packet.Read ~addr:(Int64.of_int (k * 8)) ~size:8)
      (fun () -> completions := Clock.current_cycle clock :: !completions)
  done;
  ignore (Kernel.run kernel);
  (* 8 reads over 2 ports: finishes 4 cycles after the first pair *)
  let last = List.fold_left max 0L !completions in
  let first = List.fold_left min Int64.max_int !completions in
  check Alcotest.int64 "spread over 3 extra cycles" 3L (Int64.sub last first)

let test_spm_bank_conflicts () =
  let kernel, clock, stats = fresh () in
  let spm =
    Spm.create kernel clock stats
      {
        (Spm.default_config ~name:"spm" ~base:0L ~size:4096) with
        Spm.read_ports = 4;
        banks = 2;
        partitioning = Spm.Cyclic;
      }
  in
  (* four reads to the same bank (stride = banks * word) *)
  for k = 0 to 3 do
    send (Spm.port spm) (req Packet.Read ~addr:(Int64.of_int (k * 16)) ~size:8) ignore
  done;
  ignore (Kernel.run kernel);
  check Alcotest.bool "conflicts detected" true (stat stats "spm.bank_conflicts" > 0)

(* The mappings the bank-mask fast path does not take: [Blocked] gives
   each bank a contiguous run of words, and a cyclic mapping over a bank
   count that is not a power of two takes the word index modulo the
   count. Four reads over four ports, all arriving together: each read
   that shares a bank with an older one waits and counts one conflict. *)
let test_spm_bank_mappings () =
  let conflicts ~banks ~partitioning ~stride =
    let kernel, clock, stats = fresh () in
    let spm =
      Spm.create kernel clock stats
        {
          (Spm.default_config ~name:"spm" ~base:0L ~size:4096) with
          Spm.read_ports = 4;
          banks;
          partitioning;
        }
    in
    for k = 0 to 3 do
      send (Spm.port spm) (req Packet.Read ~addr:(Int64.of_int (k * stride * 8)) ~size:8) ignore
    done;
    ignore (Kernel.run kernel);
    check Alcotest.int "all served" 4 (Spm.reads spm);
    stat stats "spm.bank_conflicts"
  in
  check Alcotest.int "blocked: consecutive words share bank 0" 3
    (conflicts ~banks:4 ~partitioning:Spm.Blocked ~stride:1);
  check Alcotest.int "cyclic, 4 banks: consecutive words spread" 0
    (conflicts ~banks:4 ~partitioning:Spm.Cyclic ~stride:1);
  check Alcotest.int "cyclic, 3 banks: words 3 apart share a bank" 3
    (conflicts ~banks:3 ~partitioning:Spm.Cyclic ~stride:3);
  check Alcotest.int "cyclic, 3 banks: 4 consecutive words wrap once" 1
    (conflicts ~banks:3 ~partitioning:Spm.Cyclic ~stride:1)

let test_spm_rejects_out_of_range () =
  let kernel, clock, stats = fresh () in
  let spm = Spm.create kernel clock stats (Spm.default_config ~name:"spm" ~base:4096L ~size:64) in
  Alcotest.check_raises "outside window"
    (Invalid_argument "spm: access 0+8 outside [4096, 4160)") (fun () ->
      send (Spm.port spm) (req Packet.Read ~addr:0L ~size:8) ignore)

(* A queued request lives in a slot of the SPM's per-slot tables, so
   once they have grown a burst costs the minor heap the same whatever
   its size: nothing is allocated per request. *)
let test_spm_requests_allocation_free () =
  let kernel, clock, stats = fresh () in
  let spm =
    Spm.create kernel clock stats
      { (Spm.default_config ~name:"spm" ~base:0L ~size:4096) with Spm.banks = 4 }
  in
  let port = Spm.port spm in
  let pkts =
    Array.init 64 (fun k ->
        req
          (if k mod 4 = 3 then Packet.Write else Packet.Read)
          ~addr:(Int64.of_int (k * 8)) ~size:8)
  in
  let served = ref 0 in
  let on_complete _ = incr served in
  let burst n =
    for k = 0 to n - 1 do
      let op, addr, size = pkts.(k) in
      Port.send port op ~addr ~size on_complete k
    done;
    ignore (Kernel.run kernel)
  in
  let words_for_bursts n =
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      burst n
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  burst 64;
  let small = words_for_bursts 16 in
  let large = words_for_bursts 64 in
  check Alcotest.int "minor words: 100 bursts of 64 vs 100 bursts of 16" small large;
  check Alcotest.int "every request served" (64 + (100 * 16) + (100 * 64)) !served

(* A push waiting for room and a pop waiting for data take reused
   slots and buffers: once the tables have grown, the minor words of a
   round do not depend on how many pushes and pops it makes. *)
let test_stream_buffer_allocation_free () =
  let kernel, clock, stats = fresh () in
  let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:32 in
  let src = Bytes.make 8 'x' and dst = Bytes.create (64 * 8) in
  let moved = ref 0 in
  let on_done _ = incr moved in
  let round n =
    for k = 0 to n - 1 do
      Stream_buffer.push sb src 0 8 on_done k
    done;
    for k = 0 to n - 1 do
      Stream_buffer.pop sb ~size:8 dst (8 * k) on_done k
    done;
    ignore (Kernel.run kernel)
  in
  let words_for_rounds n =
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      round n
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  round 64;
  let small = words_for_rounds 16 in
  let large = words_for_rounds 64 in
  check Alcotest.int "minor words: 100 rounds of 64 vs 100 rounds of 16" small large;
  check Alcotest.int "every push and pop done" (2 * (64 + (100 * 16) + (100 * 64))) !moved

(* The SPM's arbitration against the scan it replaced, kept here as the
   reference: every cycle, after that cycle's arrivals, visit the whole
   queue in arrival order and service a request when its bank is free
   and a port of its kind is left; a request that arrived since the
   previous pass and is left queued counts as one conflict, on its bank
   if the pass took that bank before reaching it, else on the ports.
   Random streams of arrivals (bank, kind, cycle) over random bank and
   port counts must give the same service order (the completion order),
   the same conflict count and the same access and conflict trace
   lines. *)
type spm_event = Access of int | Conflict of int * string

let spm_reference ~banks ~read_ports ~write_ports arrivals =
  let last = List.fold_left (fun m (c, _, _) -> max m c) 0 arrivals in
  let queue = ref [] and fresh = ref [] and served = ref [] and events = ref [] in
  let cycle = ref 0 in
  let reqs = List.mapi (fun i (c, b, w) -> (i, c, b, w)) arrivals in
  while !cycle <= last || !queue <> [] do
    let now = List.filter (fun (_, c, _, _) -> c = !cycle) reqs in
    queue := !queue @ now;
    fresh := List.map (fun (i, _, _, _) -> i) now;
    if !queue <> [] then begin
      let busy = Array.make banks false in
      let reads = ref read_ports and writes = ref write_ports in
      queue :=
        List.filter
          (fun (i, _, b, w) ->
            let left = if w then writes else reads in
            if !left > 0 && not busy.(b) then begin
              decr left;
              busy.(b) <- true;
              served := i :: !served;
              events := Access i :: !events;
              false
            end
            else begin
              if List.mem i !fresh then
                events := Conflict (i, if busy.(b) then "bank" else "port") :: !events;
              true
            end)
          !queue
    end;
    incr cycle
  done;
  (List.rev !served, List.rev !events)

let qcheck_spm_arbitration_matches_scan =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun banks ->
      int_range 1 4 >>= fun read_ports ->
      int_range 1 3 >>= fun write_ports ->
      list_size (int_range 1 60) (triple (int_range 0 12) (int_range 0 (banks - 1)) bool)
      >|= fun arrivals -> (banks, read_ports, write_ports, arrivals))
  in
  let print (b, r, w, a) =
    Printf.sprintf "banks=%d read_ports=%d write_ports=%d [%s]" b r w
      (String.concat "; "
         (List.map (fun (c, bank, wr) -> Printf.sprintf "@%d b%d %s" c bank (if wr then "W" else "R")) a))
  in
  QCheck.Test.make ~name:"spm arbitration = arrival-order scan" ~count:300
    (QCheck.make ~print gen)
    (fun (banks, read_ports, write_ports, arrivals) ->
      (* the SPM's completion order, conflict count and (with a sink that
         wants them) access and conflict lines *)
      let run traced =
        let kernel, clock, stats = fresh () in
        let sink =
          Salam_obs.Trace.create ~categories:Salam_obs.Trace.[ Spm_access; Spm_conflict ] ()
        in
        if traced then Kernel.set_trace kernel (Some sink);
        let n = List.length arrivals in
        let spm =
          Spm.create kernel clock stats
            {
              (Spm.default_config ~name:"spm" ~base:0L ~size:(8 * banks * (n + 1))) with
              Spm.banks;
              read_ports;
              write_ports;
            }
        in
        (* request [i] gets its own word in its bank, so the address names it *)
        let addr i b = 8 * ((banks * i) + b) in
        let completed = ref [] in
        let k i = completed := i :: !completed in
        List.iteri
          (fun i (c, b, w) ->
            Kernel.schedule_at kernel ~tick:(Int64.mul (Int64.of_int c) (Clock.period_ticks clock))
              (fun () ->
                Port.send (Spm.port spm) (if w then Packet.Write else Packet.Read) ~addr:(addr i b)
                  ~size:8 k i))
          arrivals;
        ignore (Kernel.run kernel);
        let of_addr a = a / 8 / banks in
        let lines =
          List.map
            (fun (e : Salam_obs.Trace.event) ->
              let a =
                match List.assoc "addr" e.Salam_obs.Trace.args with
                | Salam_obs.Trace.I a -> Int64.to_int a
                | _ -> -1
              in
              match e.Salam_obs.Trace.cat with
              | Salam_obs.Trace.Spm_access -> Access (of_addr a)
              | _ -> Conflict (of_addr a, e.Salam_obs.Trace.detail))
            (Salam_obs.Trace.events sink)
        in
        (List.rev !completed, stat stats "spm.bank_conflicts", lines)
      in
      let served, events = spm_reference ~banks ~read_ports ~write_ports arrivals in
      let conflicts =
        List.length (List.filter (function Conflict _ -> true | Access _ -> false) events)
      in
      let order, counted, _ = run false in
      let traced_order, traced_counted, lines = run true in
      order = served && counted = conflicts && traced_order = served
      && traced_counted = conflicts && lines = events)

(* --- DRAM ------------------------------------------------------------- *)

let test_dram_bandwidth_serialises () =
  let kernel, clock, stats = fresh () in
  let dram =
    Dram.create kernel clock stats
      { Dram.name = "dram"; base = 0L; size = 1 lsl 20; access_latency = 10; bus_bytes = 8 }
  in
  let finishes = ref [] in
  for k = 0 to 3 do
    send (Dram.port dram)
      (req Packet.Read ~addr:(Int64.of_int (k * 64)) ~size:64)
      (fun () -> finishes := Clock.current_cycle clock :: !finishes)
  done;
  ignore (Kernel.run kernel);
  let sorted = List.sort compare !finishes in
  (* each 64B burst holds the channel 8 cycles *)
  (match sorted with
  | a :: b :: _ -> check Alcotest.int64 "8-cycle channel occupancy" 8L (Int64.sub b a)
  | _ -> Alcotest.fail "expected completions");
  check Alcotest.int "bytes accounted" 256 (stat stats "dram.bytes_read")

(* --- cache ------------------------------------------------------------ *)

let make_cache ?(size = 1024) ?(ways = 2) kernel clock stats =
  let dram =
    Dram.create kernel clock stats
      { Dram.name = "dram"; base = 0L; size = 1 lsl 20; access_latency = 20; bus_bytes = 8 }
  in
  Cache.create kernel clock stats
    { (Cache.default_config ~name:"l1" ~size) with Cache.ways; hit_latency = 1 }
    ~lower:(Dram.port dram)

let test_cache_miss_then_hit () =
  let kernel, clock, stats = fresh () in
  let cache = make_cache kernel clock stats in
  let t_miss = ref 0L and t_hit = ref 0L in
  send (Cache.port cache)
    (req Packet.Read ~addr:256L ~size:8)
    (fun () ->
      t_miss := Clock.current_cycle clock;
      send (Cache.port cache)
        (req Packet.Read ~addr:260L ~size:4)
        (fun () -> t_hit := Clock.current_cycle clock));
  ignore (Kernel.run kernel);
  check Alcotest.int "one miss" 1 (Cache.misses cache);
  check Alcotest.int "one hit" 1 (Cache.hits cache);
  check Alcotest.bool "hit much faster than miss" true
    (Int64.compare (Int64.sub !t_hit !t_miss) (Int64.div !t_miss 2L) < 0)

let test_cache_eviction_and_writeback () =
  let kernel, clock, stats = fresh () in
  (* 2 sets x 2 ways x 64B lines = 256 B; touching 5 lines of one set
     evicts *)
  let cache = make_cache ~size:256 ~ways:2 kernel clock stats in
  let line k = Int64.of_int (k * 128) (* same set every time *) in
  let rec touch k done_ =
    if k >= 5 then done_ ()
    else
      send (Cache.port cache)
        (req Packet.Write ~addr:(line k) ~size:8)
        (fun () -> touch (k + 1) done_)
  in
  let finished = ref false in
  touch 0 (fun () -> finished := true);
  ignore (Kernel.run kernel);
  check Alcotest.bool "completed" true !finished;
  check Alcotest.bool "dirty lines written back" true (stat stats "l1.writebacks" > 0);
  Cache.flush cache;
  send (Cache.port cache) (req Packet.Read ~addr:(line 4) ~size:8) ignore;
  ignore (Kernel.run kernel);
  check Alcotest.bool "flush empties the cache" true (Cache.misses cache > 4)

let test_cache_line_split () =
  let kernel, clock, stats = fresh () in
  let cache = make_cache kernel clock stats in
  let finished = ref false in
  (* crosses a 64-byte boundary -> two fragments, one completion *)
  send (Cache.port cache)
    (req Packet.Read ~addr:60L ~size:8)
    (fun () -> finished := true);
  ignore (Kernel.run kernel);
  check Alcotest.bool "completed once" true !finished;
  check Alcotest.int "two line fills" 2 (Cache.misses cache)

(* Two outstanding misses to the same set must fill distinct ways.
   Victim selection used to run at miss time with the victim invalidated
   immediately, so with both fills in flight the second miss saw the same
   "first invalid way" and its fill clobbered the first line's tag: the
   re-read of the first line would miss again. Reserving in-flight fill
   ways makes the re-read hit. *)
let test_cache_same_set_double_miss () =
  let kernel, clock, stats = fresh () in
  (* 1024 B / 64 B lines / 2 ways = 8 sets: 0 and 512 map to set 0 *)
  let cache = make_cache kernel clock stats in
  let outstanding = ref 2 in
  let reread_hit = ref false in
  let after_both () =
    decr outstanding;
    if !outstanding = 0 then
      send (Cache.port cache)
        (req Packet.Read ~addr:0L ~size:8)
        (fun () -> reread_hit := true)
  in
  send (Cache.port cache) (req Packet.Read ~addr:0L ~size:8) after_both;
  send (Cache.port cache) (req Packet.Read ~addr:512L ~size:8) after_both;
  ignore (Kernel.run kernel);
  check Alcotest.bool "re-read completed" true !reread_hit;
  check Alcotest.int "exactly two misses" 2 (Cache.misses cache);
  check Alcotest.int "re-read of first line hits" 1 (Cache.hits cache);
  check Alcotest.int "fragments = hits + misses" 3 (stat stats "l1.fragments");
  check (Alcotest.list Alcotest.string) "quiescent invariants" [] (Cache.invariant_errors cache)

(* Every way of a set reserved by in-flight fills: a third miss to the
   set must wait for a fill to land, not corrupt a reserved way. *)
let test_cache_all_ways_reserved_retries () =
  let kernel, clock, stats = fresh () in
  let cache = make_cache kernel clock stats in
  let done_count = ref 0 in
  let bump () = incr done_count in
  (* three same-set lines (set 0), all launched the same cycle; only two
     ways exist, so the third lookup retries until a fill completes *)
  send (Cache.port cache) (req Packet.Read ~addr:0L ~size:8) bump;
  send (Cache.port cache) (req Packet.Read ~addr:512L ~size:8) bump;
  send (Cache.port cache) (req Packet.Read ~addr:1024L ~size:8) bump;
  ignore (Kernel.run kernel);
  check Alcotest.int "all three completed" 3 !done_count;
  check Alcotest.int "three misses" 3 (Cache.misses cache);
  check (Alcotest.list Alcotest.string) "quiescent invariants" [] (Cache.invariant_errors cache)

(* --- crossbar ---------------------------------------------------------- *)

let test_xbar_routing_and_default () =
  let kernel, clock, stats = fresh () in
  let hits_a = ref 0 and hits_d = ref 0 in
  let target_a =
    Port.make ~name:"a" (fun _ ~addr:_ ~size:_ k tag ->
        incr hits_a;
        k tag)
  in
  let default =
    Port.make ~name:"d" (fun _ ~addr:_ ~size:_ k tag ->
        incr hits_d;
        k tag)
  in
  let xbar = Xbar.create kernel clock stats { Xbar.name = "x"; latency = 1; width = 4 } in
  Xbar.add_range xbar ~base:0L ~size:256 target_a;
  Xbar.set_default xbar default;
  send (Xbar.port xbar) (req Packet.Read ~addr:10L ~size:4) ignore;
  send (Xbar.port xbar) (req Packet.Read ~addr:1000L ~size:4) ignore;
  ignore (Kernel.run kernel);
  check Alcotest.int "ranged" 1 !hits_a;
  check Alcotest.int "default" 1 !hits_d;
  check Alcotest.int "both routed" 2 (stat stats "x.packets_routed")

let test_xbar_rejects_overlap () =
  let kernel, clock, stats = fresh () in
  let p = Port.make ~name:"p" (fun _ ~addr:_ ~size:_ k tag -> k tag) in
  let xbar = Xbar.create kernel clock stats { Xbar.name = "x"; latency = 0; width = 1 } in
  Xbar.add_range xbar ~base:0L ~size:256 p;
  Alcotest.check_raises "overlap" (Invalid_argument "x: range 128+256 overlaps 0+256")
    (fun () -> Xbar.add_range xbar ~base:128L ~size:256 p)

(* --- DMA --------------------------------------------------------------- *)

let test_block_dma_copies () =
  let kernel, clock, stats = fresh () in
  let backing = Salam_ir.Memory.create ~size:(1 lsl 16) in
  let dram =
    Dram.create kernel clock stats
      { Dram.name = "dram"; base = 0L; size = 1 lsl 16; access_latency = 5; bus_bytes = 8 }
  in
  let dma =
    Dma.Block.create kernel clock stats
      { Dma.Block.name = "dma"; burst_bytes = 64; max_in_flight = 2 }
      ~backing ~port:(Dram.port dram)
  in
  let payload = Bytes.init 200 (fun k -> Char.chr (k mod 256)) in
  Salam_ir.Memory.store_bytes backing 1024L payload;
  let finished = ref false in
  Dma.Block.start dma ~src:1024L ~dst:8192L ~len:200 ~on_done:(fun () -> finished := true);
  ignore (Kernel.run kernel);
  check Alcotest.bool "done" true !finished;
  check Alcotest.bool "data copied" true
    (Bytes.equal payload (Salam_ir.Memory.load_bytes backing 8192L 200));
  check Alcotest.int "bytes moved" 200 (stat stats "dma.bytes_moved");
  Alcotest.check_raises "second transfer while busy is the caller's bug"
    (Invalid_argument "dma: transfer length must be positive") (fun () ->
      Dma.Block.start dma ~src:0L ~dst:0L ~len:0 ~on_done:ignore)

(* --- stream buffer ------------------------------------------------------ *)

let test_stream_fifo_order () =
  let kernel, clock, stats = fresh () in
  let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:64 in
  let received = ref [] in
  push sb (Bytes.of_string "ab") ~on_accepted:ignore;
  push sb (Bytes.of_string "cd") ~on_accepted:ignore;
  pop sb ~size:3 ~on_data:(fun d -> received := Bytes.to_string d :: !received);
  pop sb ~size:1 ~on_data:(fun d -> received := Bytes.to_string d :: !received);
  ignore (Kernel.run kernel);
  check (Alcotest.list Alcotest.string) "byte order preserved" [ "abc"; "d" ]
    (List.rev !received)

let test_stream_blocking_full_and_empty () =
  let kernel, clock, stats = fresh () in
  let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:4 in
  let accepted = ref 0 in
  push sb (Bytes.make 4 'x') ~on_accepted:(fun () -> incr accepted);
  push sb (Bytes.make 4 'y') ~on_accepted:(fun () -> incr accepted);
  ignore (Kernel.run kernel);
  check Alcotest.int "second push blocked while full" 1 !accepted;
  check Alcotest.bool "full stall counted" true (stat stats "fifo.full_stalls" > 0);
  (* draining unblocks the producer *)
  pop sb ~size:4 ~on_data:(fun _ -> ());
  ignore (Kernel.run kernel);
  check Alcotest.int "push completed after drain" 2 !accepted

let qcheck_stream_content_preserved =
  QCheck.Test.make ~name:"stream buffer preserves content" ~count:100
    QCheck.(list (string_of_size (QCheck.Gen.int_range 1 8)))
    (fun chunks ->
      QCheck.assume (chunks <> []);
      let kernel, clock, stats = fresh () in
      let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:1024 in
      let total = String.concat "" chunks in
      QCheck.assume (String.length total <= 1024);
      List.iter (fun c -> push sb (Bytes.of_string c) ~on_accepted:ignore) chunks;
      let out = Buffer.create 64 in
      pop sb ~size:(String.length total) ~on_data:(fun d ->
          Buffer.add_bytes out d);
      ignore (Kernel.run kernel);
      Buffer.contents out = total)

let suite =
  [
    Alcotest.test_case "spm latency" `Quick test_spm_latency;
    Alcotest.test_case "spm port throughput" `Quick test_spm_port_throughput;
    Alcotest.test_case "spm bank conflicts" `Quick test_spm_bank_conflicts;
    Alcotest.test_case "spm bounds" `Quick test_spm_rejects_out_of_range;
    Alcotest.test_case "spm requests allocation-free" `Quick test_spm_requests_allocation_free;
    Alcotest.test_case "stream buffer push/pop allocation-free" `Quick
      test_stream_buffer_allocation_free;
    Alcotest.test_case "dram bandwidth" `Quick test_dram_bandwidth_serialises;
    Alcotest.test_case "cache miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache eviction/writeback/flush" `Quick test_cache_eviction_and_writeback;
    Alcotest.test_case "cache line split" `Quick test_cache_line_split;
    Alcotest.test_case "cache same-set double miss" `Quick test_cache_same_set_double_miss;
    Alcotest.test_case "cache all ways reserved" `Quick test_cache_all_ways_reserved_retries;
    Alcotest.test_case "xbar routing" `Quick test_xbar_routing_and_default;
    Alcotest.test_case "xbar overlap rejected" `Quick test_xbar_rejects_overlap;
    Alcotest.test_case "block dma copies" `Quick test_block_dma_copies;
    Alcotest.test_case "stream fifo order" `Quick test_stream_fifo_order;
    Alcotest.test_case "stream blocking" `Quick test_stream_blocking_full_and_empty;
    QCheck_alcotest.to_alcotest qcheck_stream_content_preserved;
    QCheck_alcotest.to_alcotest qcheck_spm_arbitration_matches_scan;
    Alcotest.test_case "spm blocked and 3-bank mappings" `Quick test_spm_bank_mappings;
  ]
