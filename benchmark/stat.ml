(* Clocks and order statistics shared by every workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sum = List.fold_left ( +. ) 0.

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let p10 xs = quantile 0.1 xs

let minimum xs = List.fold_left Float.min infinity xs

(* The highest of p50/p75/p90/p95/p99 that still leaves at least ten
   samples beyond it, so a tail figure never rests on a handful of
   outliers. *)
let tail_quantile n =
  List.fold_left
    (fun q c -> if float_of_int n *. (1. -. c) >= 10. then c else q)
    0.5 [ 0.75; 0.9; 0.95; 0.99 ]

let percentile_name q = Printf.sprintf "p%g" (q *. 100.)

(* Fisher-Yates on a copy; the order is a pure function of the state. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Independent deterministic streams per (seed, purpose). *)
let rng seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

(* Minor-heap words allocated by the calling domain while [f] runs. *)
let allocated f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)
