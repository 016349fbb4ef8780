type t = {
  path : string option;
  index : (int64, Measurement.t) Hashtbl.t;
  mutable order : Measurement.t list;  (** newest first *)
  mutable oc : out_channel option;
  mutable repaired : int;
}

let in_memory () =
  { path = None; index = Hashtbl.create 64; order = []; oc = None; repaired = 0 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

(* split keeping track of whether the final line was newline-terminated *)
let lines_of contents =
  let lines = String.split_on_char '\n' contents in
  match List.rev lines with "" :: rest -> (List.rev rest, true) | _ -> (lines, false)

let open_ path =
  let t =
    { path = Some path; index = Hashtbl.create 64; order = []; oc = None; repaired = 0 }
  in
  (if Sys.file_exists path then begin
     let contents = read_file path in
     let lines, _terminated = lines_of contents in
     let valid = ref [] and bad_tail = ref None in
     List.iteri
       (fun i line ->
         if line = "" then ()
         else
           match Measurement.of_line line with
           | Ok m -> (
               match !bad_tail with
               | None -> valid := m :: !valid
               | Some (j, e) ->
                   (* an intact line after a corrupt one means the file is
                      damaged in the middle, not merely truncated — refuse
                      to silently drop real results *)
                   failwith
                     (Printf.sprintf "Store.open_: %s: line %d is corrupt (%s) but later lines are valid"
                        path (j + 1) e))
           | Error e -> if !bad_tail = None then bad_tail := Some (i, e))
       lines;
     let keep = List.rev !valid in
     let good_bytes =
       List.fold_left (fun acc m -> acc + String.length (Measurement.to_line m) + 1) 0 keep
     in
     (match !bad_tail with
     | Some _ ->
         t.repaired <- String.length contents - good_bytes;
         (* rewrite the intact prefix: appends must start on a fresh line *)
         let oc = open_out_bin path in
         List.iter
           (fun m ->
             output_string oc (Measurement.to_line m);
             output_char oc '\n')
           keep;
         close_out oc
     | None ->
         (* a clean file whose last line lacks '\n' (e.g. hand-edited)
            still needs the rewrite treatment; detect via byte count *)
         if String.length contents <> good_bytes then begin
           t.repaired <- max 0 (String.length contents - good_bytes);
           let oc = open_out_bin path in
           List.iter
             (fun m ->
               output_string oc (Measurement.to_line m);
               output_char oc '\n')
             keep;
           close_out oc
         end);
     List.iter
       (fun (m : Measurement.t) ->
         if not (Hashtbl.mem t.index m.Measurement.fp) then begin
           Hashtbl.replace t.index m.Measurement.fp m;
           t.order <- m :: t.order
         end)
       keep
   end);
  t

let ensure_oc t =
  match (t.oc, t.path) with
  | Some oc, _ -> Some oc
  | None, Some path ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
      t.oc <- Some oc;
      Some oc
  | None, None -> None

let find t ~fp = Hashtbl.find_opt t.index fp

let add t (m : Measurement.t) =
  if not (Hashtbl.mem t.index m.Measurement.fp) then begin
    Hashtbl.replace t.index m.Measurement.fp m;
    t.order <- m :: t.order;
    match ensure_oc t with
    | Some oc ->
        output_string oc (Measurement.to_line m);
        output_char oc '\n';
        flush oc
    | None -> ()
  end

let size t = Hashtbl.length t.index

let entries t = List.rev t.order

let repaired_bytes t = t.repaired

let close t =
  match t.oc with
  | Some oc ->
      close_out oc;
      t.oc <- None
  | None -> ()
