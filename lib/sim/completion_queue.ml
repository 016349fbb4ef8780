(* One ring holds every entry not yet run: the scheduled batches, oldest
   first, then the open batch at the back. [batches] holds the size of
   each scheduled batch in due order, so the event that runs a batch
   pops its size and then that many entries from the front. *)
type t = {
  kernel : Kernel.t;
  clock : Clock.t;
  mutable ks : (int -> unit) array;
  mutable tags : int array;
  mutable mask : int;
  mutable head : int;
  mutable len : int;
  mutable open_n : int;  (** entries of the open batch, at the back of the ring *)
  batches : Slot_ring.t;
  mutable last_tick : int;  (** due tick of the newest scheduled batch *)
  mutable run : unit -> unit;  (** the one event action, built at [create] *)
}

let no_k (_ : int) = ()

let initial = 16

(* Entries are read from the fields on every step: a handler may stage
   and close new batches (growing the ring) while a batch runs. *)
let run_batch t =
  let n = Slot_ring.pop_front t.batches in
  for _ = 1 to n do
    let i = t.head in
    let k = t.ks.(i) and tag = t.tags.(i) in
    t.head <- (i + 1) land t.mask;
    t.len <- t.len - 1;
    k tag
  done

let create clock =
  let t =
    {
      kernel = Clock.kernel clock;
      clock;
      ks = Array.make initial no_k;
      tags = Array.make initial 0;
      mask = initial - 1;
      head = 0;
      len = 0;
      open_n = 0;
      batches = Slot_ring.create ~capacity:initial ();
      last_tick = 0;
      run = ignore;
    }
  in
  t.run <- (fun () -> run_batch t);
  t

let grow t =
  let cap = Array.length t.ks in
  let ks = Array.make (2 * cap) no_k and tags = Array.make (2 * cap) 0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land t.mask in
    ks.(i) <- t.ks.(j);
    tags.(i) <- t.tags.(j)
  done;
  t.ks <- ks;
  t.tags <- tags;
  t.mask <- (2 * cap) - 1;
  t.head <- 0

let[@inline] add t k tag =
  if t.len = Array.length t.ks then grow t;
  let i = (t.head + t.len) land t.mask in
  t.ks.(i) <- k;
  t.tags.(i) <- tag;
  t.len <- t.len + 1;
  t.open_n <- t.open_n + 1

let close t ~cycles =
  if t.open_n > 0 then begin
    let tick = Clock.edge_tick_i t.clock ~cycles in
    if tick < t.last_tick then
      invalid_arg "Completion_queue.close: a batch falls due before an earlier one";
    t.last_tick <- tick;
    Slot_ring.push_back t.batches t.open_n;
    t.open_n <- 0;
    Kernel.schedule_at_i t.kernel ~tick t.run
  end

let after t ~cycles k tag =
  add t k tag;
  close t ~cycles
