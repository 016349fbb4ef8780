type t = { name : string; handler : Packet.t -> on_complete:(unit -> unit) -> unit }

let make ~name handler = { name; handler }

let name t = t.name

let send t pkt ~on_complete = t.handler pkt ~on_complete
