(* Tests for the simulation kernel substrate: event queue, kernel,
   clocks, rings, statistics and deterministic RNG. *)

open Salam_sim

let check = Alcotest.check

let test_event_queue_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  Event_queue.schedule q ~tick:30 (record "c");
  Event_queue.schedule q ~tick:10 (record "a");
  Event_queue.schedule q ~tick:20 (record "b");
  let rec drain () =
    match Event_queue.pop q with
    | Some ev ->
        ev.Event_queue.action ();
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "tick order" [ "a"; "b"; "c" ] (List.rev !log)

let test_event_queue_same_tick_fifo () =
  let q = Event_queue.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  Event_queue.schedule q ~tick:5 (record "first");
  Event_queue.schedule q ~tick:3 (record "early");
  Event_queue.schedule q ~tick:5 (record "second");
  Event_queue.schedule q ~tick:5 (record "third");
  let rec drain () =
    match Event_queue.pop q with
    | Some ev ->
        ev.Event_queue.action ();
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "tick, then insertion order"
    [ "early"; "first"; "second"; "third" ] (List.rev !log)

let test_event_queue_past_rejected () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~tick:100 ignore;
  ignore (Event_queue.pop q);
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Event_queue.schedule: tick 50 is before now 100") (fun () ->
      Event_queue.schedule q ~tick:50 ignore)

let qcheck_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun ticks ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.schedule q ~tick:t ignore) ticks;
      let rec drain last =
        match Event_queue.pop q with
        | Some ev ->
            if ev.Event_queue.tick < last then false else drain ev.Event_queue.tick
        | None -> true
      in
      drain min_int)

let test_event_queue_tiebreak () =
  (* same tick: insertion (seq) order, with enough later events mixed in
     to force the heap storage to grow and the tick-5 entries to sift
     through it *)
  let q = Event_queue.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  for i = 0 to 63 do
    Event_queue.schedule q ~tick:(1000 - i) (record (Printf.sprintf "t%d" (1000 - i)));
    if i mod 13 = 0 then Event_queue.schedule q ~tick:5 (record (Printf.sprintf "s%d" i))
  done;
  let rec drain () =
    match Event_queue.pop q with
    | Some ev ->
        ev.Event_queue.action ();
        drain ()
    | None -> ()
  in
  drain ();
  let got = List.rev !log in
  check (Alcotest.list Alcotest.string) "tick 5 drains in insertion order"
    [ "s0"; "s13"; "s26"; "s39"; "s52" ]
    (List.filteri (fun i _ -> i < 5) got);
  check Alcotest.int "all events ran" 69 (List.length got);
  check Alcotest.string "later ticks follow" "t937" (List.nth got 5)

(* Random schedules, some made from inside running actions at the current
   tick or later, drain in (tick, insertion) order. Each event is labelled
   in scheduling order, so the reference model is a list kept sorted by
   (tick, label). *)
let qcheck_event_queue_model =
  QCheck.Test.make ~name:"event queue drains in (tick, insertion) order" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 60) (pair (int_bound 40) (list_of_size Gen.(0 -- 3) (int_bound 4))))
    (fun roots ->
      let q = Event_queue.create () in
      let next = ref 0 in
      let ran = ref [] in
      let rec sched tick spawn =
        let label = !next in
        incr next;
        Event_queue.schedule q ~tick (fun () ->
            ran := label :: !ran;
            let now = Event_queue.last_popped_tick q in
            List.iter (fun d -> sched (now + d) []) spawn)
      in
      List.iter (fun (tick, spawn) -> sched tick spawn) roots;
      while not (Event_queue.is_empty q) do
        (Event_queue.pop_action q) ()
      done;
      (* model: (tick, label, spawn) entries, popped by minimum (tick, label) *)
      let pending = ref [] and mlabel = ref 0 and expected = ref [] in
      let add tick spawn =
        pending := List.sort compare ((tick, !mlabel, spawn) :: !pending);
        incr mlabel
      in
      List.iter (fun (tick, spawn) -> add tick spawn) roots;
      while !pending <> [] do
        match !pending with
        | (tick, label, spawn) :: rest ->
            pending := rest;
            expected := label :: !expected;
            List.iter (fun d -> add (tick + d) []) spawn
        | [] -> ()
      done;
      List.rev !ran = List.rev !expected)

(* Steady-state operations allocate nothing: after a warm-up that grows
   the storage, 10k operations leave the minor-heap word count where it
   was. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let test_event_queue_allocation_free () =
  let q = Event_queue.create () in
  let action () = () in
  let cycle n =
    for i = 1 to n do
      let now = Event_queue.last_popped_tick q in
      Event_queue.schedule q ~tick:(now + (i mod 3)) action;
      Event_queue.schedule q ~tick:(now + 1) action;
      (Event_queue.pop_action q) ();
      (Event_queue.pop_action q) ()
    done
  in
  (* leave a standing population so pops sift through a real heap *)
  for i = 1 to 200 do
    Event_queue.schedule q ~tick:(1_000_000 + i) action
  done;
  cycle 100;
  check Alcotest.int "minor words over 10k schedule/pop pairs" 0
    (minor_words_during (fun () -> cycle 5_000))

let test_slot_list_allocation_free () =
  let l = Slot_list.create () in
  Slot_list.reserve l 3;
  let anchor = 0 and a = 1 and b = 2 in
  Slot_list.sorted_insert l ~key:0 anchor;
  let cycle n =
    for k = 1 to n do
      Slot_list.push_back l a;
      Slot_list.sorted_insert l ~key:k b;
      Slot_list.remove l a;
      Slot_list.sorted_insert l ~key:(k + 1) a;
      Slot_list.remove l b;
      Slot_list.remove l a
    done
  in
  cycle 100;
  check Alcotest.int "minor words over 10k push/insert/remove cycles" 0
    (minor_words_during (fun () -> cycle 10_000));
  check (Alcotest.list Alcotest.int) "list intact" [ anchor ] (Slot_list.to_list l)

let test_slot_list_basic () =
  let l = Slot_list.create () in
  Slot_list.reserve l 6;
  List.iter (Slot_list.push_back l) [ 1; 2; 3; 4; 5 ];
  check (Alcotest.list Alcotest.int) "in order" [ 1; 2; 3; 4; 5 ] (Slot_list.to_list l);
  check Alcotest.int "length" 5 (Slot_list.length l);
  (* O(1) removal from the middle, head and tail *)
  Slot_list.remove l 3;
  Slot_list.remove l 1;
  Slot_list.remove l 5;
  check (Alcotest.list Alcotest.int) "after removals" [ 2; 4 ] (Slot_list.to_list l);
  check Alcotest.bool "unlinked" false (Slot_list.linked l 3);
  (* a removed slot can be relinked *)
  Slot_list.push_back l 3;
  check (Alcotest.list Alcotest.int) "relinked at the back" [ 2; 4; 3 ] (Slot_list.to_list l);
  Alcotest.check_raises "double link"
    (Invalid_argument "Slot_list.push_back: slot already linked") (fun () ->
      Slot_list.push_back l 3);
  Alcotest.check_raises "remove unlinked" (Invalid_argument "Slot_list.remove: slot not linked")
    (fun () -> Slot_list.remove l 0)

let test_slot_list_sorted_insert_and_walk () =
  let l = Slot_list.create () in
  Slot_list.reserve l 4;
  (* at the front, at the back, and between two members *)
  List.iter (fun (s, key) -> Slot_list.sorted_insert l ~key s) [ (2, 30); (0, 10); (3, 40); (1, 20) ];
  check (Alcotest.list Alcotest.int) "sorted by key" [ 0; 1; 2; 3 ] (Slot_list.to_list l);
  (* manual walk with early exit, the engine's disambiguation pattern *)
  let rec walk acc s =
    if s = Slot_list.nil || Slot_list.key l s >= 30 then List.rev acc
    else walk (Slot_list.key l s :: acc) (Slot_list.next l s)
  in
  check (Alcotest.list Alcotest.int) "early-exit walk" [ 10; 20 ] (walk [] (Slot_list.head l))

(* The engine's ready list against a sorted-list model: sorted inserts
   of distinct keys into slots that are reused and grown on demand,
   removals, and issue scans. A scan stands past the slot it visits
   (as the compiled engine's three-list merge does for the lists it is
   not issuing from), may remove that slot, and may link wake-ups with
   larger keys, rewinding its cursor onto them. It must visit every
   member, and every wake-up, once, in increasing key order. *)
let qcheck_slot_list_model =
  QCheck.Test.make ~name:"slot_list matches sorted model" ~count:300
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 80) (pair (int_bound 3) (int_bound 10_000))))
    (fun (seed, ops) ->
      let rng = Random.State.make [| seed |] in
      let l = Slot_list.create () in
      let model = ref [] (* (key, slot), sorted by key *) in
      let free = ref [] and n_slots = ref 0 in
      let used = Hashtbl.create 64 in
      let rec fresh_key k = if Hashtbl.mem used k then fresh_key (k + 1) else k in
      let slot () =
        match !free with
        | s :: tl ->
            free := tl;
            s
        | [] ->
            let s = !n_slots in
            incr n_slots;
            Slot_list.reserve l !n_slots;
            s
      in
      let insert k =
        let k = fresh_key k in
        Hashtbl.replace used k ();
        let s = slot () in
        Slot_list.sorted_insert l ~key:k s;
        model := List.sort compare ((k, s) :: !model);
        s
      in
      let remove s =
        Slot_list.remove l s;
        model := List.filter (fun (_, s') -> s' <> s) !model;
        free := s :: !free
      in
      let ok = ref true in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 | 1 -> ignore (insert x)
          | 2 -> (
              match !model with
              | [] -> ()
              | m -> remove (snd (List.nth m (x mod List.length m))))
          | _ ->
              let expect = ref (List.map fst !model) in
              let visited = ref [] in
              let cursor = ref (Slot_list.head l) in
              while !cursor <> Slot_list.nil do
                let s = !cursor in
                let k = Slot_list.key l s in
                visited := k :: !visited;
                cursor := Slot_list.next l s;
                if Random.State.bool rng then begin
                  for _ = 1 to Random.State.int rng 3 do
                    let w = insert (k + 1 + Random.State.int rng 50) in
                    expect := Slot_list.key l w :: !expect;
                    cursor := Slot_list.rewind l ~cursor:!cursor w
                  done;
                  remove s
                end
              done;
              let visited = List.rev !visited in
              if visited <> List.sort compare !expect then ok := false)
        ops;
      !ok
      && Slot_list.to_list l = List.map snd !model
      && Slot_list.length l = List.length !model)

let qcheck_slot_pool_model =
  (* take, or release the [i]th held slot: a taken slot is never one
     already held, lies below the capacity, and is the one released
     last when any is free; per-slot arrays widened with [fit] keep
     their entries *)
  QCheck.Test.make ~name:"slot_pool hands out distinct slots, last released first" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let p = Slot_pool.create ~capacity:1 () in
      let owner = ref (Slot_pool.fit p [||] (-1)) in
      let held = ref [] and released = ref [] and ok = ref true in
      List.iteri
        (fun n (take, i) ->
          if take || !held = [] then begin
            let s = Slot_pool.take p in
            if s >= Array.length !owner then owner := Slot_pool.fit p !owner (-1);
            (match !released with
            | r :: rest ->
                if s <> r then ok := false;
                released := rest
            | [] -> ());
            if List.mem_assoc s !held || s >= Slot_pool.capacity p then ok := false;
            !owner.(s) <- n;
            held := (s, n) :: !held
          end
          else begin
            let s, _ = List.nth !held (i mod List.length !held) in
            held := List.filter (fun (h, _) -> h <> s) !held;
            Slot_pool.release p s;
            released := s :: !released
          end)
        ops;
      !ok
      && Array.length !owner = Slot_pool.capacity p
      && List.for_all (fun (s, n) -> !owner.(s) = n) !held)

let test_slot_pool_allocation_free () =
  let p = Slot_pool.create () in
  let cycle n =
    for _ = 1 to n do
      let a = Slot_pool.take p in
      let b = Slot_pool.take p in
      Slot_pool.release p a;
      Slot_pool.release p b
    done
  in
  cycle 10;
  Alcotest.(check int) "no words once grown" 0 (minor_words_during (fun () -> cycle 5_000))

let qcheck_slot_ring_model =
  (* push_back of a fresh value, pop_front, or the cache's in-place
     compaction: visit a prefix, keep the marked elements of it in
     order at the front, shift them over the rest and drop the front.
     Compared against a list model, from the smallest ring. *)
  QCheck.Test.make ~name:"slot_ring matches queue model" ~count:300
    QCheck.(list (triple (int_bound 2) small_nat (int_bound 0xffff)))
    (fun ops ->
      let r = Slot_ring.create ~capacity:1 () in
      let model = ref [] (* front first *) in
      let counter = ref 0 in
      List.for_all
        (fun (op, prefix, mask) ->
          match op with
          | 0 ->
              incr counter;
              Slot_ring.push_back r !counter;
              model := !model @ [ !counter ];
              true
          | 1 -> (
              match !model with
              | [] -> Slot_ring.is_empty r
              | front :: rest ->
                  model := rest;
                  Slot_ring.peek_front r = front && Slot_ring.pop_front r = front)
          | _ ->
              let visited = prefix mod (Slot_ring.length r + 1) in
              let keep i = (mask lsr (i mod 16)) land 1 = 1 in
              let kept = ref 0 in
              for i = 0 to visited - 1 do
                if keep i then begin
                  Slot_ring.set r !kept (Slot_ring.get r i);
                  incr kept
                end
              done;
              let dropped = visited - !kept in
              for j = !kept - 1 downto 0 do
                Slot_ring.set r (j + dropped) (Slot_ring.get r j)
              done;
              Slot_ring.drop_front r dropped;
              model := List.filteri (fun i _ -> i >= visited || keep i) !model;
              Slot_ring.length r = List.length !model)
        ops
      && Slot_ring.to_list r = !model)

(* A ring whose head has moved off slot 0 grows: the elements come out
   in order, through the mask of the larger ring. [capacity:3] rounds
   up to 4. *)
let test_ring_wraparound_after_growth () =
  let r = Slot_ring.create ~capacity:3 () in
  List.iter (Slot_ring.push_back r) [ 1; 2; 3 ];
  check Alcotest.int "pop" 1 (Slot_ring.pop_front r);
  check Alcotest.int "pop" 2 (Slot_ring.pop_front r);
  (* head at slot 2: these wrap to slots 3, 0, 1, then fill and grow *)
  List.iter (Slot_ring.push_back r) [ 4; 5; 6; 7; 8; 9; 10 ];
  check (Alcotest.list Alcotest.int) "contents after growth" [ 3; 4; 5; 6; 7; 8; 9; 10 ]
    (Slot_ring.to_list r);
  for i = 11 to 30 do
    Slot_ring.push_back r i;
    ignore (Slot_ring.pop_front r)
  done;
  check (Alcotest.list Alcotest.int) "contents after laps"
    (List.init 8 (fun i -> 23 + i))
    (Slot_ring.to_list r)

let test_kernel_schedule_after () =
  let k = Kernel.create () in
  let order = ref [] in
  Kernel.schedule_at k ~tick:10L (fun () ->
      order := "first" :: !order;
      Kernel.schedule_at k ~tick:(Int64.add (Kernel.now k) 5L) (fun () ->
          order := "second" :: !order));
  let final = Kernel.run k in
  check Alcotest.int64 "final tick" 15L final;
  check (Alcotest.list Alcotest.string) "order" [ "first"; "second" ] (List.rev !order)

let test_kernel_max_ticks () =
  let k = Kernel.create () in
  let ran = ref false in
  Kernel.schedule_at k ~tick:1000L (fun () -> ran := true);
  ignore (Kernel.run ~max_ticks:500L k);
  check Alcotest.bool "event beyond horizon not run" false !ran;
  ignore (Kernel.run k);
  check Alcotest.bool "event runs after horizon lifted" true !ran

(* Sleepers against the chains they stand for. Each schedule runs twice
   over random events that spawn more events and now and then end a
   sleep early: once with every sleeper's quiet ticks as real no-op
   events, chained one period apart until the wake tick (or an early
   wake), and once with [Kernel.sleep]. Every other event, and every
   real sleeper tick, must run in the same order at the same tick. *)
let sleeper_log ~virtual_ticks ~seed ~periods =
  let k = Kernel.create () in
  let n = Array.length periods in
  let log = ref [] in
  let rng_of id = Random.State.make [| seed; id |] in
  let next_label = ref 0 and budget = ref 120 in
  let asleep = Array.make n false and woken = Array.make n false in
  let rounds = Array.make n 4 in
  let sl = Array.map (fun period -> Kernel.add_sleeper k ~period) periods in
  let rec event label () =
    let now = Kernel.now_i k in
    log := (label, now) :: !log;
    let r = rng_of label in
    for _ = 1 to Random.State.int r 3 do
      if !budget > 0 then begin
        decr budget;
        let l = !next_label in
        incr next_label;
        Kernel.schedule_at_i k ~tick:(now + Random.State.int r 9) (event l)
      end
    done;
    if Random.State.int r 4 = 0 then begin
      let i = Random.State.int r n in
      if asleep.(i) then begin
        asleep.(i) <- false;
        if virtual_ticks then ignore (Kernel.wake k sl.(i)) else woken.(i) <- true
      end
    end
  and sleeper_tick i () =
    asleep.(i) <- false;
    let now = Kernel.now_i k in
    log := (-1 - i, now) :: !log;
    if rounds.(i) > 0 then begin
      rounds.(i) <- rounds.(i) - 1;
      let p = periods.(i) in
      (* 0: no wake tick, only an event ends the sleep *)
      let quiet = Random.State.int (rng_of (1_000_000 + (10 * i) + rounds.(i))) 6 in
      let wake = if quiet = 0 then max_int else now + (quiet * p) in
      asleep.(i) <- true;
      if virtual_ticks then
        Kernel.sleep k sl.(i) ~tick:(now + p) ~seq:(Kernel.reserve_seq k) ~wake (sleeper_tick i)
      else Kernel.schedule_at_i k ~tick:(now + p) (chain i wake)
    end
  and chain i wake () =
    let now = Kernel.now_i k in
    if woken.(i) || now = wake then begin
      woken.(i) <- false;
      sleeper_tick i ()
    end
    else Kernel.schedule_at_i k ~tick:(now + periods.(i)) (chain i wake)
  in
  let r = rng_of (-1) in
  for _ = 1 to 4 do
    let l = !next_label in
    incr next_label;
    Kernel.schedule_at_i k ~tick:(Random.State.int r 10) (event l)
  done;
  Array.iteri (fun i _ -> Kernel.schedule_at_i k ~tick:(Random.State.int r 10) (sleeper_tick i)) periods;
  (* a chain with no wake tick never ends; the horizon stops it *)
  ignore (Kernel.run ~max_ticks:3000L k);
  List.rev !log

let qcheck_sleepers_keep_queue_order =
  QCheck.Test.make ~name:"virtual ticks keep every other event's (tick, seq) order" ~count:300
    QCheck.(pair int (list_of_size Gen.(1 -- 3) (int_range 1 4)))
    (fun (seed, periods) ->
      let periods = Array.of_list periods in
      sleeper_log ~virtual_ticks:true ~seed ~periods
      = sleeper_log ~virtual_ticks:false ~seed ~periods)

let test_kernel_idle_while_asleep () =
  let k = Kernel.create () in
  let s = Kernel.add_sleeper k ~period:10 in
  check Alcotest.bool "idle before" true (Kernel.idle k);
  Kernel.sleep k s ~tick:10 ~seq:(Kernel.reserve_seq k) ~wake:max_int ignore;
  check Alcotest.bool "not idle while asleep" false (Kernel.idle k);
  (* nothing queued and no wake tick: the run ends with it asleep *)
  ignore (Kernel.run k);
  check Alcotest.bool "still asleep after the run" false (Kernel.idle k);
  check Alcotest.int "wake turns the virtual tick real where it stands" 10 (Kernel.wake k s);
  ignore (Kernel.run k);
  check Alcotest.bool "idle once it ran" true (Kernel.idle k)

let test_clock_alignment () =
  let k = Kernel.create () in
  let clk = Clock.create k ~freq_mhz:500.0 in
  check Alcotest.int64 "500 MHz period is 2000 ps" 2000L (Clock.period_ticks clk);
  let observed = ref (-1L) in
  Kernel.schedule_at k ~tick:4100L (fun () ->
      (* now = 4100, not on an edge; next edge is 6000 *)
      Clock.schedule_cycles clk ~cycles:2 (fun () -> observed := Kernel.now k));
  ignore (Kernel.run k);
  check Alcotest.int64 "aligned two cycles later" 10000L !observed

let test_clock_cycle_of_tick () =
  let k = Kernel.create () in
  let clk = Clock.create k ~freq_mhz:1000.0 in
  check Alcotest.int64 "cycle 0" 0L (Clock.cycle_of_tick clk 999L);
  check Alcotest.int64 "cycle 1" 1L (Clock.cycle_of_tick clk 1000L)

let test_stats_tree () =
  let root = Stats.group "root" in
  let child = Stats.group ~parent:root "child" in
  let s = Stats.scalar child "counter" in
  Stats.incr s;
  Stats.add s 2.5;
  check (Alcotest.float 1e-9) "value" 3.5 (Stats.value s);
  let total = Stats.fold root ~init:0.0 ~f:(fun acc ~path:_ v -> acc +. v) in
  check (Alcotest.float 1e-9) "fold" 3.5 total

(* A scalar's value lives in a flat float record, so an update writes
   it in place and allocates nothing. *)
let test_stats_scalar_allocation_free () =
  let s = Stats.scalar (Stats.group "g") "n" in
  let cycle n =
    for _ = 1 to n do
      Stats.incr s;
      Stats.add s 0.5
    done
  in
  cycle 100;
  check Alcotest.int "minor words over 10k incr/add calls" 0
    (minor_words_during (fun () -> cycle 5_000));
  check (Alcotest.float 1e-9) "value" 7650.0 (Stats.value s)

(* Fold paths are dotted and relative to the root, and come in
   registration order: a group's own scalars (even one registered after
   its children), then each child's subtree. *)
let test_stats_fold_paths () =
  let root = Stats.group "root" in
  let a = Stats.scalar root "a" in
  let child = Stats.group ~parent:root "child" in
  let b = Stats.scalar child "b" in
  let grand = Stats.group ~parent:child "grand" in
  let c = Stats.scalar grand "c" in
  let other = Stats.group ~parent:root "other" in
  let d = Stats.scalar other "d" in
  let late = Stats.scalar root "late" in
  List.iter2 Stats.add [ a; b; c; d; late ] [ 1.5; 2.0; 4.0; 8.0; 16.0 ];
  let folded = Stats.fold root ~init:[] ~f:(fun acc ~path v -> (path, v) :: acc) in
  check
    Alcotest.(list (pair string (float 1e-9)))
    "paths in registration order"
    [ ("a", 1.5); ("late", 16.0); ("child.b", 2.0); ("child.grand.c", 4.0); ("other.d", 8.0) ]
    (List.rev folded)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let qcheck_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create (Int64.of_int seed) in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 99L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

let suite =
  [
    Alcotest.test_case "event queue tick order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue same-tick fifo" `Quick test_event_queue_same_tick_fifo;
    Alcotest.test_case "event queue rejects past" `Quick test_event_queue_past_rejected;
    QCheck_alcotest.to_alcotest qcheck_event_queue_sorted;
    Alcotest.test_case "event queue tie-break" `Quick test_event_queue_tiebreak;
    QCheck_alcotest.to_alcotest qcheck_event_queue_model;
    Alcotest.test_case "event queue allocation-free" `Quick test_event_queue_allocation_free;
    Alcotest.test_case "slot_list allocation-free" `Quick test_slot_list_allocation_free;
    QCheck_alcotest.to_alcotest qcheck_slot_pool_model;
    Alcotest.test_case "slot_pool allocation-free" `Quick test_slot_pool_allocation_free;
    Alcotest.test_case "slot_list push/remove" `Quick test_slot_list_basic;
    Alcotest.test_case "slot_list sorted_insert/walks" `Quick test_slot_list_sorted_insert_and_walk;
    QCheck_alcotest.to_alcotest qcheck_slot_list_model;
    QCheck_alcotest.to_alcotest qcheck_slot_ring_model;
    Alcotest.test_case "ring wraparound after growth" `Quick test_ring_wraparound_after_growth;
    Alcotest.test_case "kernel schedule_after" `Quick test_kernel_schedule_after;
    Alcotest.test_case "kernel max_ticks" `Quick test_kernel_max_ticks;
    QCheck_alcotest.to_alcotest qcheck_sleepers_keep_queue_order;
    Alcotest.test_case "kernel idle while a sleeper sleeps" `Quick test_kernel_idle_while_asleep;
    Alcotest.test_case "clock edge alignment" `Quick test_clock_alignment;
    Alcotest.test_case "clock cycle_of_tick" `Quick test_clock_cycle_of_tick;
    Alcotest.test_case "stats tree" `Quick test_stats_tree;
    Alcotest.test_case "stats scalar updates allocation-free" `Quick
      test_stats_scalar_allocation_free;
    Alcotest.test_case "stats fold paths" `Quick test_stats_fold_paths;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    QCheck_alcotest.to_alcotest qcheck_rng_int_bounds;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutation;
  ]
