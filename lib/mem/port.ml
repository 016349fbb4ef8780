type t = {
  name : string;
  handler : Packet.t -> on_complete:(unit -> unit) -> unit;
  mutable in_flight : int;
}

let make ~name handler = { name; handler; in_flight = 0 }

let name t = t.name

let send t pkt ~on_complete =
  t.in_flight <- t.in_flight + 1;
  t.handler pkt ~on_complete:(fun () ->
      t.in_flight <- t.in_flight - 1;
      on_complete ())

let pending t = t.in_flight
