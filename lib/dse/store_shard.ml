(* A result store split across N JSONL shard files under one directory,
   keyed by fingerprint prefix. Each shard is a plain {!Store.t}, so the
   truncated-tail repair and bit-identical hit semantics are inherited
   wholesale; a manifest file pins the shard count (and the reshard
   generation, which names the live shard files) so a store is never
   silently reopened with a different hash layout. A legacy store — one
   JSONL file — opens in place as a single shard with no manifest.
   Every shard carries its own mutex: concurrent readers and writers of
   *different* shards never contend, and two writers of the same shard
   serialize on its lock instead of interleaving bytes in one file. *)

type shard = { s_store : Store.t; s_lock : Mutex.t }

type t = {
  path : string option;  (** directory or legacy file; [None] = in-memory *)
  gen : int;  (** reshard generation — names the live shard files *)
  shards : shard array;
}

let default_shards = 8
let manifest_magic = "salam-shards 1"
let manifest_name = "shards.manifest"
let manifest_path dir = Filename.concat dir manifest_name

(* generation 0 keeps the historical names; each reshard bumps the
   generation so the new shard files never collide with the live ones —
   the manifest rename is then the single atomic commit point *)
let shard_file dir ~gen i =
  if gen = 0 then Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" i)
  else Filename.concat dir (Printf.sprintf "shard-%02d.g%d.jsonl" i gen)

let write_manifest dir ~gen n =
  let tmp = manifest_path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Printf.fprintf oc "%s\ncount=%d\n" manifest_magic n;
  if gen > 0 then Printf.fprintf oc "gen=%d\n" gen;
  close_out oc;
  Sys.rename tmp (manifest_path dir)

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then
    failwith
      (Printf.sprintf "Store_shard.open_: %s exists but has no %s — not a sharded store"
         dir manifest_name);
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad what = failwith (Printf.sprintf "Store_shard.open_: %s: %s" path what) in
      let line () = try input_line ic with End_of_file -> bad "truncated manifest" in
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
      (* the gen line is optional: pre-reshard stores never wrote one *)
      let gen =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match String.split_on_char '=' line with
            | [ "gen"; g ] -> (
                match int_of_string_opt g with
                | Some g when g >= 0 -> g
                | Some _ | None -> bad (Printf.sprintf "bad gen %S" g))
            | _ -> bad (Printf.sprintf "bad gen line %S" line))
      in
      (n, gen))

let of_stores path ~gen stores =
  { path; gen; shards = Array.map (fun s -> { s_store = s; s_lock = Mutex.create () }) stores }

let in_memory ?(shards = default_shards) () =
  if shards < 1 then invalid_arg "Store_shard.in_memory: shards must be at least 1";
  of_stores None ~gen:0 (Array.init shards (fun _ -> Store.in_memory ()))

let is_file path = Sys.file_exists path && not (Sys.is_directory path)

let open_ ?shards path =
  (match shards with
  | Some n when n < 1 -> invalid_arg "Store_shard.open_: shards must be at least 1"
  | Some _ | None -> ());
  let file = is_file path in
  let n, gen =
    if file then (1, 0)
    else if Sys.file_exists path && Sys.readdir path <> [||] then read_manifest path
    else begin
      (* a missing or empty directory is a store waiting to happen
         (mkdir-then-open is a natural CLI sequence) *)
      let n = Option.value shards ~default:default_shards in
      if not (Sys.file_exists path) then Sys.mkdir path 0o755;
      write_manifest path ~gen:0 n;
      (n, 0)
    end
  in
  (match shards with
  | Some k when k <> n ->
      failwith
        (if file then
           Printf.sprintf "Store_shard.open_: %s is a single-file store but %d shards were requested"
             path k
         else
           Printf.sprintf
             "Store_shard.open_: %s is sharded %d ways but %d were requested — use reshard" path n
             k)
  | Some _ | None -> ());
  let files = if file then [| path |] else Array.init n (fun i -> shard_file path ~gen i) in
  of_stores (Some path) ~gen (Array.map Store.open_ files)

let shard_count t = Array.length t.shards

let path t = t.path

(* fingerprint prefix: the top byte spreads FNV-1a output uniformly, and
   taking it (rather than the low bits) matches the "prefix" a human
   sees in the hex key *)
let shard_index t fp =
  Int64.to_int (Int64.shift_right_logical fp 56) mod Array.length t.shards

let with_shard t i f =
  let s = t.shards.(i) in
  Mutex.lock s.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.s_lock) (fun () -> f s.s_store)

let find t ~fp = with_shard t (shard_index t fp) (fun s -> Store.find s ~fp)

let add t (m : Measurement.t) =
  with_shard t (shard_index t m.Measurement.fp) (fun s -> Store.add s m)

let size t =
  let total = ref 0 in
  Array.iteri (fun i _ -> total := !total + with_shard t i Store.size) t.shards;
  !total

let entries t =
  List.concat (List.init (Array.length t.shards) (fun i -> with_shard t i Store.entries))

let repaired_bytes t =
  let total = ref 0 in
  Array.iteri (fun i _ -> total := !total + with_shard t i Store.repaired_bytes) t.shards;
  !total

let close t = Array.iteri (fun i _ -> with_shard t i Store.close) t.shards

(* Crash-safe resharding: the next generation's shard files are written
   in full beside the live ones (names never collide), then the
   manifest rename atomically flips the store to the new layout, and
   only then are the old generation's files removed. A crash before the
   rename leaves the old store untouched (stale next-gen files are
   deleted on the next attempt); a crash after it leaves the new store
   complete, with at worst some orphaned old-gen files that no reader
   ever looks at. At no point does any entry exist only in memory. *)
let reshard ~shards dir =
  if shards < 1 then invalid_arg "Store_shard.reshard: shards must be at least 1";
  if is_file dir then
    failwith
      (Printf.sprintf
         "Store_shard.reshard: %s is a single-file store; only directory stores can be resharded"
         dir);
  let old = open_ dir in
  let old_n = shard_count old in
  let old_gen = old.gen in
  let ms = entries old in
  close old;
  if shards <> old_n then begin
    let gen = old_gen + 1 in
    (* a previously crashed reshard may have left partial files at this
       generation; start it from scratch *)
    for i = 0 to shards - 1 do
      let f = shard_file dir ~gen i in
      if Sys.file_exists f then Sys.remove f
    done;
    let fresh = of_stores (Some dir) ~gen (Array.init shards (fun i -> Store.open_ (shard_file dir ~gen i))) in
    List.iter (add fresh) ms;
    close fresh;
    (* the commit point: a reader sees the old layout before this
       rename and the complete new one after it, never a mixture *)
    write_manifest dir ~gen shards;
    for i = 0 to old_n - 1 do
      try Sys.remove (shard_file dir ~gen:old_gen i) with Sys_error _ -> ()
    done
  end
