(* Architectural-state checkpoints.

   A checkpoint is a named bag of sections, one per component agent,
   each holding (field, value) pairs. Only *architectural* state goes
   in: backing memory contents, allocation brk, stream FIFO payloads,
   the simulation tick. Timing-derived state (cache tags, in-flight
   queues, statistics) is deliberately excluded — components guarantee
   quiescence at capture points instead and reconstruct cold timing
   state on restore.

   Checkpoints live in memory only: a fast-forwarded run restores the
   snapshot its warm-up produced in the same process. *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type value = Int of int64 | Blob of string

type section = { sec_name : string; fields : (string * value) list }

type t = { roadmark : string; tick : int64; sections : section list }

(* --- field access ----------------------------------------------------- *)

let find section name =
  match List.assoc_opt name section.fields with
  | Some v -> v
  | None -> invalid "checkpoint section %s: missing field %s" section.sec_name name

let find_int section name =
  match find section name with
  | Int i -> i
  | Blob _ -> invalid "checkpoint section %s: field %s is not an int" section.sec_name name

let find_blob section name =
  match find section name with
  | Blob b -> b
  | Int _ ->
      invalid "checkpoint section %s: field %s is not a blob" section.sec_name name

let section t name = List.find_opt (fun s -> s.sec_name = name) t.sections

(* --- agents ------------------------------------------------------------ *)

type agent = {
  agent_name : string;
  capture : unit -> (string * value) list;
  restore : section -> unit;
}

let check_unique what names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then invalid "checkpoint: duplicate %s %s" what n;
      Hashtbl.add seen n ())
    names

let capture_all ~roadmark ~tick agents =
  check_unique "agent" (List.map (fun a -> a.agent_name) agents);
  {
    roadmark;
    tick;
    sections =
      List.map (fun a -> { sec_name = a.agent_name; fields = a.capture () }) agents;
  }

(* Strict bidirectional matching: a snapshot taken on a differently
   shaped system must fail loudly, never restore partially. *)
let restore_all t agents =
  check_unique "agent" (List.map (fun a -> a.agent_name) agents);
  check_unique "section" (List.map (fun s -> s.sec_name) t.sections);
  List.iter
    (fun (a : agent) ->
      if not (List.exists (fun s -> s.sec_name = a.agent_name) t.sections) then
        invalid "checkpoint restore: no section for component %s (snapshot from a different system?)"
          a.agent_name)
    agents;
  List.iter
    (fun s ->
      match List.find_opt (fun a -> a.agent_name = s.sec_name) agents with
      | None ->
          invalid "checkpoint restore: section %s has no matching component (snapshot from a \
                   different system?)"
            s.sec_name
      | Some a -> a.restore s)
    t.sections
