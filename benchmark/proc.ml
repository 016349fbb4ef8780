(* Subprocesses, temporary files and host memory readings.

   Everything the benchmark writes lives under [benchmark/.ledger/] in
   the working directory: one fresh run directory per invocation,
   removed on exit, so sockets, stores and CSVs never outlive the run.
   Every child is registered on spawn and reaped on exit (SIGTERM, then
   SIGKILL), so a failed run never leaks load into the next one. *)

let root = Filename.concat "benchmark" ".ledger"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let live : int list ref = ref []

let live_lock = Mutex.create ()

let forget pid = Mutex.protect live_lock (fun () -> live := List.filter (( <> ) pid) !live)

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* Wait up to [grace] seconds for a child to exit; true once reaped. *)
let await ~grace pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec poll () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        poll ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  poll ()

(* Stop a child: SIGTERM, a short grace period, then SIGKILL. Always
   reaps. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (await ~grace:5. pid) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (waitpid_retry [] pid) with Unix.Unix_error _ -> ()
  end;
  forget pid

(* Let a child that was asked to exit do so, stopping it if it hangs. *)
let finish pid = if await ~grace:10. pid then forget pid else stop pid

let reap_all () = List.iter stop (Mutex.protect live_lock (fun () -> !live))

let run_dir =
  lazy
    (mkdir_p root;
     let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf dir;
     Unix.mkdir dir 0o755;
     at_exit (fun () ->
         reap_all ();
         rm_rf dir);
     dir)

(* A path inside this run's own directory (relative, so Unix socket
   paths stay far below the 108-byte limit wherever the checkout is). *)
let tmp name = Filename.concat (Lazy.force run_dir) name

let spawn ~log prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close out)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) devnull out out)
  in
  Mutex.protect live_lock (fun () -> live := pid :: !live);
  pid

(* Peak resident set ([VmHWM]) of a live process in MB, if readable. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> None)
        (String.split_on_char '\n' text)

(* Wait for a child, sampling its peak RSS every few milliseconds; the
   last reading before exit is the child's high-water mark. *)
let wait_sampling_rss pid =
  let rec loop hwm =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ ->
        let hwm = match vm_hwm_mb pid with Some m -> Float.max hwm m | None -> hwm in
        Unix.sleepf 0.005;
        loop hwm
    | _, status ->
        forget pid;
        (status, hwm)
  in
  loop 0.

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tail_of_file path =
  match read_file path with
  | s ->
      let n = String.length s in
      if n <= 2000 then s else String.sub s (n - 2000) 2000
  | exception Sys_error _ -> ""
