open Salam_sim
open Salam_ir
open Salam_mem

type t = { system : System.t; clock : Clock.t; port : Port.t }

let create system ~clock_mhz ~port = { system; clock = System.clock system ~mhz:clock_mhz; port }

(* Timed uncached store (functional effect at issue). *)
let write_u64 t ~addr ~value ~k =
  Memory.store (System.backing t.system) Ty.I64 addr (Bits.Int value);
  (* one host cycle to issue, then the interconnect's timing *)
  Clock.schedule_cycles t.clock ~cycles:1 (fun () ->
      Port.send_fn t.port Packet.Write ~addr:(Int64.to_int addr) ~size:8 k)

let delay_cycles t n ~k = Clock.schedule_cycles t.clock ~cycles:(max 0 n) k

let memcpy t ~dst ~src ~len ~k =
  let chunk = 64 in
  let backing = System.backing t.system in
  let rec step offset =
    if offset >= len then k ()
    else begin
      let n = min chunk (len - offset) in
      let src_addr = Int64.add src (Int64.of_int offset) in
      let dst_addr = Int64.add dst (Int64.of_int offset) in
      Clock.schedule_cycles t.clock ~cycles:1 (fun () ->
          Port.send_fn t.port Packet.Read ~addr:(Int64.to_int src_addr) ~size:n (fun () ->
              Memory.store_bytes backing dst_addr (Memory.load_bytes backing src_addr n);
              Clock.schedule_cycles t.clock ~cycles:1 (fun () ->
                  Port.send_fn t.port Packet.Write ~addr:(Int64.to_int dst_addr) ~size:n (fun () ->
                      step (offset + n)))))
    end
  in
  step 0

let write_args t comm ~args ~k =
  let rec go i = function
    | [] -> k ()
    | arg :: rest ->
        let addr =
          Int64.add (Comm_interface.mmr_base comm)
            (Int64.of_int (Comm_interface.Layout.arg i * 8))
        in
        write_u64 t ~addr ~value:arg ~k:(fun () -> go (i + 1) rest)
  in
  go 0 args

let start_device t comm ~k =
  let addr =
    Int64.add (Comm_interface.mmr_base comm) (Int64.of_int (Comm_interface.Layout.control * 8))
  in
  write_u64 t ~addr ~value:1L ~k

let wait_irq comm ~k =
  let fired = ref false in
  Comm_interface.set_interrupt comm (fun () ->
      if not !fired then begin
        fired := true;
        k ()
      end)

let run_kernel t comm ~args ~k =
  write_args t comm ~args ~k:(fun () ->
      wait_irq comm ~k;
      start_device t comm ~k:(fun () -> ()))
