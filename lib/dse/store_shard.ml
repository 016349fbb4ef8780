(* The result store: one in-memory index, one mutex and one JSONL file
   that new lines are appended to. The store is a directory holding a
   manifest and its JSONL files, or a legacy single JSONL file opened in
   place. Directories written when stores were sharded list N files in
   their manifest; all of them are read, in index order, into the one
   index, and new lines go to the first. A lookup does not depend on
   which file a line sits in, so reading them merged answers exactly
   what the sharded layout did.

   An entry is held as its line, the bytes a hit is answered with:
   [find_line] hands them out as they are, [find] and [entries] decode
   them. Opening validates every line and keeps the canonical
   re-encoding of any line that is not already canonical. *)

type t = {
  path : string option;  (** directory or legacy file; [None] = in-memory *)
  append_to : string option;  (** the file new lines go to *)
  lock : Mutex.t;  (** guards every field below *)
  index : (int64, string) Hashtbl.t;  (** fingerprint -> canonical line *)
  mutable order : string list;  (** newest first *)
  mutable oc : out_channel option;
  repaired : int;
}

let manifest_magic = "salam-shards 1"
let manifest_path dir = Filename.concat dir "shards.manifest"

(* generation 0 is the only name new stores use; directories resharded
   by older releases name their files after the generation *)
let shard_file dir ~gen i =
  if gen = 0 then Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" i)
  else Filename.concat dir (Printf.sprintf "shard-%02d.g%d.jsonl" i gen)

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then
    failwith
      (Printf.sprintf "Store_shard.open_: %s exists but has no shards.manifest — not a store"
         dir);
  In_channel.with_open_bin path (fun ic ->
      let bad what = failwith (Printf.sprintf "Store_shard.open_: %s: %s" path what) in
      let line () =
        match In_channel.input_line ic with Some l -> l | None -> bad "truncated manifest"
      in
      let magic = line () in
      if magic <> manifest_magic then
        bad (Printf.sprintf "bad magic %S (expected %S)" magic manifest_magic);
      let count = line () in
      let n =
        match String.split_on_char '=' count with
        | [ "count"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 1 -> n
            | Some _ | None -> bad (Printf.sprintf "bad shard count %S" n))
        | _ -> bad (Printf.sprintf "bad count line %S" count)
      in
      (* the gen line is optional: only resharded directories carry one *)
      let gen =
        match In_channel.input_line ic with
        | None -> 0
        | Some line -> (
            match String.split_on_char '=' line with
            | [ "gen"; g ] -> (
                match int_of_string_opt g with
                | Some g when g >= 0 -> g
                | Some _ | None -> bad (Printf.sprintf "bad gen %S" g))
            | _ -> bad (Printf.sprintf "bad gen line %S" line))
      in
      (n, gen))

(* Every line a store writes starts with this, so an interrupted append
   leaves a final fragment that is a prefix of it or starts with it. *)
let record_start = "{\"fp\":\""

(* Feed every measurement in [path] to [keep], with its canonical line,
   and return the bytes of damaged tail cut off the file. Only a final
   line with no '\n' — what an interrupted append leaves — is repaired;
   any other line that does not parse is refused, so a file that is not
   a store is never wiped. *)
let load_file path keep =
  if not (Sys.file_exists path) then 0
  else
    let contents = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length contents in
    let corrupt lineno e =
      failwith (Printf.sprintf "Store_shard.open_: %s: line %d is corrupt (%s)" path lineno e)
    in
    (* a line kept verbatim must be exactly what [to_line] writes, so a
       reordered, padded or extra-key line is never handed out as is *)
    let keep_line line m =
      let canonical = Measurement.to_line m in
      keep m (if String.equal canonical line then line else canonical)
    in
    let rec go start lineno =
      match String.index_from_opt contents start '\n' with
      | Some stop ->
          (if stop > start then
             let line = String.sub contents start (stop - start) in
             match Measurement.of_line line with
             | Ok m -> keep_line line m
             | Error e -> corrupt lineno e);
          go (stop + 1) (lineno + 1)
      | None when start = len -> 0
      | None -> (
          let tail = String.sub contents start (len - start) in
          match Measurement.of_line tail with
          | Ok m ->
              keep_line tail m;
              0
          | Error e ->
              if
                not
                  (String.starts_with ~prefix:record_start tail
                  || String.starts_with ~prefix:tail record_start)
              then corrupt lineno e;
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_substring oc contents 0 start);
              len - start)
    in
    go 0 1

(* Index [line] under [fp] unless the fingerprint is already there: the
   first line for a fingerprint wins, across files as within one. *)
let remember t fp line =
  let fresh = not (Hashtbl.mem t.index fp) in
  if fresh then begin
    Hashtbl.replace t.index fp line;
    t.order <- line :: t.order
  end;
  fresh

let make ?path ?append_to files =
  let t =
    { path; append_to; lock = Mutex.create (); index = Hashtbl.create 64; order = []; oc = None;
      repaired = 0 }
  in
  let repaired =
    List.fold_left
      (fun acc f ->
        acc + load_file f (fun m line -> ignore (remember t m.Measurement.fp line)))
      0 files
  in
  { t with repaired }

let in_memory () = make []

let open_ path =
  if Sys.file_exists path && not (Sys.is_directory path) then
    make ~path ~append_to:path [ path ]
  else begin
    (* a missing or empty directory is a store waiting to happen
       (mkdir-then-open is a natural CLI sequence) *)
    let n, gen =
      if Sys.file_exists path && Sys.readdir path <> [||] then read_manifest path
      else begin
        if not (Sys.file_exists path) then Sys.mkdir path 0o755;
        Out_channel.with_open_bin (manifest_path path) (fun oc ->
            Printf.fprintf oc "%s\ncount=1\n" manifest_magic);
        (1, 0)
      end
    in
    make ~path ~append_to:(shard_file path ~gen 0) (List.init n (shard_file path ~gen))
  end

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
  match (t.oc, t.append_to) with
  | None, Some file ->
      t.oc <- Some (open_append file);
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
