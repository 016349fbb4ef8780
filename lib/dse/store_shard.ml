(* The result store: one in-memory index, one mutex and one JSONL file
   that new lines are appended to. On disk a store is a directory
   holding a manifest and that file; nothing else opens.

   An entry is held as its line, the bytes a hit is answered with:
   [find_line] hands them out as they are, [find] and [entries] decode
   them. Opening validates every line: it must decode, so it is already
   what [Measurement.to_line] writes, and its fingerprint must be its
   own. *)

type t = {
  path : string option;  (** the store directory; [None] = in-memory *)
  lock : Mutex.t;  (** guards every field below *)
  index : (int64, string) Hashtbl.t;  (** fingerprint -> line *)
  mutable order : string list;  (** newest first *)
  mutable oc : out_channel option;
  repaired : int;
}

let manifest = "salam-shards 1\ncount=1\n"
let manifest_path dir = Filename.concat dir "shards.manifest"
let lines_path dir = Filename.concat dir "shard-00.jsonl"

(* Single-file stores and N-shard directories hold lines from before
   model epoch 1: no fingerprint of theirs can be asked for now, so they
   are refused rather than opened to miss on every lookup. *)
let refuse_layout path found =
  failwith
    (Printf.sprintf
       "Store_shard.open_: %s is %s: the layout of a store that predates model epoch 1 (a \
        store is now a directory whose shards.manifest reads %S), so every lookup in it would \
        miss; it is refused and left untouched"
       path found manifest)

(* a missing or empty directory is a store waiting to happen
   (mkdir-then-open is a natural CLI sequence) *)
let check_layout path =
  if not (Sys.file_exists path) then Sys.mkdir path 0o755;
  if not (Sys.is_directory path) then refuse_layout path "a single file"
  else if Sys.readdir path = [||] then
    Out_channel.with_open_bin (manifest_path path) (fun oc -> output_string oc manifest)
  else if not (Sys.file_exists (manifest_path path)) then
    failwith ("Store_shard.open_: " ^ path ^ " exists but has no shards.manifest — not a store")
  else
    let found = In_channel.with_open_bin (manifest_path path) In_channel.input_all in
    if found <> manifest then
      refuse_layout path (Printf.sprintf "a directory whose shards.manifest reads %S" found)

(* Index [line] under [fp] unless the fingerprint is already there: the
   first line for a fingerprint wins. *)
let remember t fp line =
  let fresh = not (Hashtbl.mem t.index fp) in
  if fresh then begin
    Hashtbl.replace t.index fp line;
    t.order <- line :: t.order
  end;
  fresh

let make path =
  { path; lock = Mutex.create (); index = Hashtbl.create 64; order = []; oc = None; repaired = 0 }

let in_memory () = make None

(* Every line a store writes starts with this, so an interrupted append
   leaves a final fragment that is a prefix of it or starts with it. *)
let record_start = "{\"fp\":\""

(* Index every measurement in [path] in [t], by its line, and return
   the bytes of damaged tail cut off the file. A line that decodes is
   the one spelling [Measurement.to_line] writes, and must carry the
   fingerprint of its own workload and point. Only what an interrupted
   append leaves is repaired: a final line with no '\n' and no closing
   '}' that starts as every line does. Any other line that does not
   parse, or that another fingerprint keys, is refused, so a file that
   is not a store is never wiped and a complete line is never cut. *)
let load_file t path =
  if not (Sys.file_exists path) then 0
  else
    let contents = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length contents in
    let refuse lineno what =
      failwith
        (Printf.sprintf "Store_shard.open_: %s: line %d %s; the store is refused and left untouched"
           path lineno what)
    in
    let keep lineno line (m : Measurement.t) =
      let fp = Point.fingerprint ~workload:m.workload m.point in
      if fp <> m.fp then
        refuse lineno
          (Printf.sprintf
             "has fp %s but its workload and point hash to %s: it is from another model epoch or \
              is corrupt"
             (Point.fingerprint_hex m.fp) (Point.fingerprint_hex fp));
      ignore (remember t m.fp line)
    in
    let corrupt lineno e = refuse lineno (Printf.sprintf "is corrupt (%s)" e) in
    let rec go start lineno =
      match String.index_from_opt contents start '\n' with
      | Some stop ->
          (if stop > start then
             let line = String.sub contents start (stop - start) in
             match Measurement.of_line line with
             | Ok m -> keep lineno line m
             | Error e -> corrupt lineno e);
          go (stop + 1) (lineno + 1)
      | None when start = len -> 0
      | None -> (
          let tail = String.sub contents start (len - start) in
          match Measurement.of_line tail with
          | Ok m ->
              keep lineno tail m;
              0
          | Error e ->
              (* a line cut short has lost its closing '}' *)
              if
                String.ends_with ~suffix:"}" tail
                || not
                     (String.starts_with ~prefix:record_start tail
                     || String.starts_with ~prefix:tail record_start)
              then corrupt lineno e;
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_substring oc contents 0 start);
              len - start)
    in
    go 0 1

let open_ path =
  check_layout path;
  let t = make (Some path) in
  { t with repaired = load_file t (lines_path path) }

let path t = t.path

(* A complete last line may still lack its '\n' (an append cut just
   before it, or a hand edit); the next line must not run into it. *)
let open_append file =
  let ends_open =
    Sys.file_exists file
    && In_channel.with_open_bin file (fun ic ->
           let len = In_channel.length ic in
           len > 0L
           && (In_channel.seek ic (Int64.pred len);
               In_channel.input_char ic <> Some '\n'))
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 file in
  if ends_open then output_char oc '\n';
  oc

let find_line t ~fp = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.index fp)

(* a held line was validated at open or written by [to_line], so it
   decodes *)
let decode line =
  match Measurement.of_line line with
  | Ok m -> m
  | Error e -> failwith ("Store_shard: held line does not decode: " ^ e)

let find t ~fp = Option.map decode (find_line t ~fp)

let channel t =
  match (t.oc, t.path) with
  | None, Some dir ->
      t.oc <- Some (open_append (lines_path dir));
      t.oc
  | oc, _ -> oc

let add_line t m =
  let line = Measurement.to_line m in
  Mutex.protect t.lock (fun () ->
      if remember t m.Measurement.fp line then begin
        Option.iter
          (fun oc ->
            output_string oc line;
            output_char oc '\n';
            flush oc)
          (channel t);
        line
      end
      else Hashtbl.find t.index m.Measurement.fp)

let add t m = ignore (add_line t m)

let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.index)

let entries t = List.map decode (Mutex.protect t.lock (fun () -> List.rev t.order))

let repaired_bytes t = t.repaired

let close t =
  Mutex.protect t.lock (fun () ->
      Option.iter close_out t.oc;
      t.oc <- None)
