(* Smoke test of the ledger. Each workload runs at tiny sizes (--quick):
   once untraced, twice traced and once with a planted wrong answer.
   Checks that every metric BENCHMARK.json names is printed with its
   unit, that the exact counts repeat between the two traced runs, that
   nothing failed, that the traced run writes a loadable Chrome trace,
   and that the planted wrong answer makes the command exit non-zero. *)

(* --- a minimal JSON reader ------------------------------------------- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Lit of string

exception Bad of string

let parse s =
  let pos = ref 0 and n = String.length s in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let bad what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then bad (Printf.sprintf "expected %c" c);
    incr pos
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if !pos >= n then bad "unterminated string";
      (if peek () = '\\' then begin
         incr pos;
         match peek () with
         | 'u' ->
             Buffer.add_char b '?';
             pos := !pos + 4
         | c -> Buffer.add_char b c
       end
       else Buffer.add_char b (peek ()));
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  (* [items close item] reads "item, item, ... close" *)
  let rec items close item acc =
    let v = item () in
    ws ();
    match peek () with
    | ',' ->
        incr pos;
        items close item (v :: acc)
    | c when c = close ->
        incr pos;
        List.rev (v :: acc)
    | _ -> bad "expected , or a closing bracket"
  in
  let rec value () =
    ws ();
    let open_ close f =
      incr pos;
      ws ();
      if peek () = close then begin
        incr pos;
        []
      end
      else items close f []
    in
    match peek () with
    | '{' ->
        Obj
          (open_ '}' (fun () ->
               let k = string () in
               expect ':';
               (k, value ())))
    | '[' -> Arr (open_ ']' value)
    | '"' -> Str (string ())
    | _ -> (
        let start = !pos in
        while !pos < n && not (String.contains ",]} \t\r\n" s.[!pos]) do
          incr pos
        done;
        let tok = String.sub s start (!pos - start) in
        match float_of_string_opt tok with
        | Some f -> Num f
        | None when List.mem tok [ "true"; "false"; "null" ] -> Lit tok
        | None -> bad ("bad token " ^ tok))
  in
  let v = value () in
  ws ();
  if !pos <> n then bad "trailing input";
  v

let field k = function Obj l -> List.assoc k l | _ -> raise Not_found

let str = function Str s -> s | _ -> raise Not_found

let num = function Num f -> f | _ -> raise Not_found

let arr = function Arr l -> l | _ -> raise Not_found

(* --- running the ledger ---------------------------------------------- *)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

(* Standard error passes through, except for the planted run whose
   failure report is expected. *)
let run ?(quiet = false) args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 else Unix.stderr
  in
  let exe = "../ledger.exe" in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w err in
  Unix.close w;
  if quiet then Unix.close err;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  (status, lines, parse (List.nth lines (List.length lines - 1)))

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

(* the human-readable line "<name>  <value> <unit>  n=<count>" *)
let printed lines name unit =
  List.exists
    (fun line -> match words line with [ n; _; u; _ ] -> n = name && u = unit | _ -> false)
    lines

let exact_counts =
  [
    "core.cycles";
    "core.dyn_instr";
    "core.alloc_mwords";
    "soc.sim_us";
    "dse.points";
    "dse.snapshots";
  ]

let () =
  let bench = parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  let catalogue kind =
    List.map (fun m -> (str (field "name" m), str (field "unit" m))) (arr (field kind bench))
  in
  let workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" bench)) in
  let started = Unix.gettimeofday () in
  List.iter
    (fun w ->
      let base = [ "--workload"; w; "--seed"; "3"; "--seconds"; "0"; "--quick" ] in
      let expect_metrics label kind (status, lines, j) =
        check (status = Unix.WEXITED 0) "%s %s: exit status" w label;
        check
          (field "correct" j = Lit "true" && num (field "failed" j) = 0.)
          "%s %s: correct" w label;
        let attempted = Printf.sprintf "n=%.0f" (num (field "attempted" j)) in
        check
          (List.exists (fun l -> words l = [ "error_rate"; "0"; "fraction"; attempted ]) lines)
          "%s %s: error_rate is 0" w label;
        let metrics = field "metrics" j in
        let unit_of name =
          try Some (str (field "unit" (field name metrics))) with Not_found -> None
        in
        List.iter
          (fun (name, unit) ->
            check (unit_of name = Some unit)
              "%s %s: %s missing from the JSON line or in the wrong unit" w label name;
            check (printed lines name unit) "%s %s: %s not printed with unit %s" w label name unit)
          (catalogue kind);
        check
          (List.length (match metrics with Obj l -> l | _ -> []) = List.length (catalogue kind))
          "%s %s: the JSON line holds exactly the catalogue" w label;
        metrics
      in
      ignore (expect_metrics "untraced" "end_to_end" (run (base @ [ "--trace"; "0" ])));
      let traced k =
        let path = Printf.sprintf "%s-%d.trace.json" w k in
        let args = base @ [ "--trace"; "1"; "--trace-json"; path ] in
        let m = expect_metrics "traced" "per_layer" (run args) in
        (match parse (In_channel.with_open_text path In_channel.input_all) with
        | j -> check (List.length (arr (field "traceEvents" j)) > 1) "%s: trace has no spans" w
        | exception (Bad e | Sys_error e) -> check false "%s: trace JSON unreadable: %s" w e);
        m
      in
      let a = traced 1 in
      let b = traced 2 in
      List.iter
        (fun name ->
          let v m = num (field "value" (field name m)) in
          check (v a = v b) "%s: exact count %s differs between runs (%g vs %g)" w name (v a) (v b))
        exact_counts;
      let status, _, j = run ~quiet:true (base @ [ "--trace"; "0"; "--plant" ]) in
      check
        (status <> Unix.WEXITED 0 && field "correct" j = Lit "false")
        "%s: a planted wrong answer must fail the run" w;
      Printf.printf "%-14s ok (%.1f s so far)\n%!" w (Unix.gettimeofday () -. started))
    workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
