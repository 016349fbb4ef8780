(* Focused coverage for lib/mem/dma.ml and lib/mem/stream_buffer.ml:
   burst splitting (observed through the trace layer), the completion
   interrupt path through the communications interface, stream-buffer
   backpressure in both directions, and a stream-DMA round trip. *)

open Salam_sim
open Salam_mem
open Salam_soc
module Trace = Salam_obs.Trace

let check = Alcotest.check

let stat = Test_mem.stat

let push = Test_mem.push

let pop = Test_mem.pop

let fresh ?trace () =
  let kernel = Kernel.create () in
  Kernel.set_trace kernel trace;
  let clock = Clock.create kernel ~freq_mhz:1000.0 in
  let stats = Stats.group "test" in
  (kernel, clock, stats)

let of_cat sink cat = List.filter (fun (e : Trace.event) -> e.Trace.cat = cat) (Trace.events sink)

let sizes evs =
  List.map
    (fun (e : Trace.event) ->
      match List.assoc_opt "size" e.Trace.args with
      | Some (Trace.I n) -> Int64.to_int n
      | _ -> -1)
    evs

(* --- block DMA ---------------------------------------------------------- *)

let test_burst_split () =
  let sink = Trace.create () in
  let kernel, clock, stats = fresh ~trace:sink () in
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
  let payload = Bytes.init 160 (fun k -> Char.chr ((k * 11 + 5) land 0xff)) in
  Salam_ir.Memory.store_bytes backing 1024L payload;
  let finished = ref false in
  Dma.Block.start dma ~src:1024L ~dst:8192L ~len:160 ~on_done:(fun () -> finished := true);
  ignore (Kernel.run kernel);
  check Alcotest.bool "done" true !finished;
  check Alcotest.int "bytes moved" 160 (stat stats "dma.bytes_moved");
  check Alcotest.bool "data copied" true
    (Bytes.equal payload (Salam_ir.Memory.load_bytes backing 8192L 160));
  (* 160 bytes with 64-byte bursts: 64 + 64 + 32, visible in the trace *)
  check (Alcotest.list Alcotest.int) "burst starts split 64/64/32" [ 64; 64; 32 ]
    (sizes (of_cat sink Trace.Dma_burst_start));
  check (Alcotest.list Alcotest.int) "every burst completes" [ 64; 64; 32 ]
    (sizes (of_cat sink Trace.Dma_burst_end));
  check Alcotest.bool "dma no longer busy" false (Dma.Block.busy dma)

let test_completion_interrupt () =
  let sink = Trace.create () in
  let sys = System.create ~trace:sink () in
  let fabric = Fabric.create sys in
  let cluster = Cluster.create sys fabric ~name:"irqT" ~clock_mhz:1000.0 () in
  let base, _spm = Cluster.add_shared_spm cluster ~size:512 () in
  let dma = Cluster.add_dma cluster () in
  let clock = Clock.create (System.kernel sys) ~freq_mhz:1000.0 in
  let ci = Comm_interface.create sys ~name:"acc0" ~clock ~mmr_words:4 in
  let irqs = ref 0 in
  Comm_interface.set_interrupt ci (fun () -> incr irqs);
  (* the on_done callback is what a driver turns into an interrupt *)
  Dma.Block.start dma ~src:base
    ~dst:(Int64.add base 256L)
    ~len:96
    ~on_done:(fun () -> Comm_interface.raise_interrupt ci);
  ignore (System.run sys);
  check Alcotest.int "interrupt raised exactly once" 1 !irqs;
  let bursts = of_cat sink Trace.Dma_burst_end in
  check Alcotest.int "96 bytes is two bursts" 2 (List.length bursts);
  match (of_cat sink Trace.Interrupt, bursts) with
  | [ irq ], _ :: _ ->
      let last_end =
        List.fold_left (fun acc (e : Trace.event) -> max acc e.Trace.tick) 0L bursts
      in
      check Alcotest.bool "interrupt not before the final burst" true
        (irq.Trace.tick >= last_end)
  | irqs, _ -> Alcotest.failf "expected one soc.irq event, saw %d" (List.length irqs)

(* --- stream buffer backpressure ----------------------------------------- *)

let test_backpressure_full () =
  let sink = Trace.create () in
  let kernel, clock, stats = fresh ~trace:sink () in
  let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:4 in
  let accepted = ref 0 in
  push sb (Bytes.make 4 'x') ~on_accepted:(fun () -> incr accepted);
  push sb (Bytes.make 4 'y') ~on_accepted:(fun () -> incr accepted);
  ignore (Kernel.run kernel);
  check Alcotest.int "second push blocked while full" 1 !accepted;
  check Alcotest.bool "full stalls counted" true (stat stats "fifo.full_stalls" > 0);
  check Alcotest.bool "full stall traced" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.detail = "full")
       (of_cat sink Trace.Stream_stall));
  (* draining unblocks the producer and the payload survives intact *)
  let got = ref "" in
  pop sb ~size:4 ~on_data:(fun d -> got := Bytes.to_string d);
  ignore (Kernel.run kernel);
  check Alcotest.int "push accepted after drain" 2 !accepted;
  check Alcotest.string "fifo order preserved" "xxxx" !got;
  check Alcotest.int "occupancy back to one chunk" 4 (Stream_buffer.occupancy sb)

let test_backpressure_empty () =
  let sink = Trace.create () in
  let kernel, clock, stats = fresh ~trace:sink () in
  let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:16 in
  let got = ref None in
  pop sb ~size:2 ~on_data:(fun d -> got := Some (Bytes.to_string d));
  ignore (Kernel.run kernel);
  check Alcotest.bool "pop blocked while empty" true (!got = None);
  check Alcotest.bool "empty stalls counted" true (stat stats "fifo.empty_stalls" > 0);
  check Alcotest.bool "empty stall traced" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.detail = "empty")
       (of_cat sink Trace.Stream_stall));
  push sb (Bytes.of_string "hi") ~on_accepted:ignore;
  ignore (Kernel.run kernel);
  check (Alcotest.option Alcotest.string) "pop served once data arrives" (Some "hi") !got

(* --- stream DMA ---------------------------------------------------------- *)

let test_stream_dma_roundtrip () =
  let sink = Trace.create () in
  let kernel, clock, stats = fresh ~trace:sink () in
  let backing = Salam_ir.Memory.create ~size:(1 lsl 16) in
  let dram =
    Dram.create kernel clock stats
      { Dram.name = "dram"; base = 0L; size = 1 lsl 16; access_latency = 5; bus_bytes = 8 }
  in
  let mk name =
    Dma.Stream.create kernel clock stats ~name ~chunk_bytes:16 ~backing
      ~port:(Dram.port dram)
  in
  let reader = mk "sdma_in" and writer = mk "sdma_out" in
  let sb = Stream_buffer.create kernel clock stats ~name:"fifo" ~capacity_bytes:32 in
  let payload = Bytes.init 48 (fun k -> Char.chr ((k * 3 + 1) land 0xff)) in
  Salam_ir.Memory.store_bytes backing 1024L payload;
  let in_done = ref false and out_done = ref false in
  Dma.Stream.stream_in reader ~buffer:sb ~src:1024L ~len:48 ~on_done:(fun () ->
      in_done := true);
  Dma.Stream.stream_out writer ~buffer:sb ~dst:4096L ~len:48 ~on_done:(fun () ->
      out_done := true);
  ignore (Kernel.run kernel);
  check Alcotest.bool "stream-in finished" true !in_done;
  check Alcotest.bool "stream-out finished" true !out_done;
  check Alcotest.int "reader moved 48 bytes" 48 (stat stats "sdma_in.bytes_moved");
  check Alcotest.int "writer moved 48 bytes" 48 (stat stats "sdma_out.bytes_moved");
  check Alcotest.bool "payload arrived intact" true
    (Bytes.equal payload (Salam_ir.Memory.load_bytes backing 4096L 48));
  (* 48 bytes at 16-byte chunks: three traced chunks each way *)
  let chunks detail =
    List.filter
      (fun (e : Trace.event) -> e.Trace.detail = detail)
      (of_cat sink Trace.Dma_burst_start)
  in
  check Alcotest.int "three in-chunks traced" 3 (List.length (chunks "in"));
  check Alcotest.int "three out-chunks traced" 3 (List.length (chunks "out"))

let suite =
  [
    Alcotest.test_case "block dma burst split" `Quick test_burst_split;
    Alcotest.test_case "dma completion interrupt" `Quick test_completion_interrupt;
    Alcotest.test_case "stream backpressure: full" `Quick test_backpressure_full;
    Alcotest.test_case "stream backpressure: empty" `Quick test_backpressure_empty;
    Alcotest.test_case "stream dma roundtrip" `Quick test_stream_dma_roundtrip;
  ]
