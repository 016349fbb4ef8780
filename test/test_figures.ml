(* The paper's claims, checked on the figure goldens. A golden pins
   every byte a figure prints; these tests say whether those bytes still
   make the claim EXPERIMENTS.md states for the figure, and each fails
   on a planted perturbation of its golden. *)

let golden name =
  In_channel.with_open_bin (Filename.concat "golden" (Filename.concat "figures" name))
    In_channel.input_all

(* the whitespace-separated words of each line from the one after the
   header whose first word is [header] up to the first line [last]
   accepts, exclusive *)
let table ~header ~last text =
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let rec rows acc = function
    | [] -> List.rev acc
    | l :: rest -> if last l then List.rev acc else rows (words l :: acc) rest
  in
  let rec seek = function
    | [] -> []
    | l :: rest -> (
        match words l with w :: _ when w = header -> rows [] rest | _ -> seek rest)
  in
  seek (String.split_on_char '\n' text)

let percent s = float_of_string (String.sub s 0 (String.length s - 1))

(* Fig 16: the private-SPM baseline, shared SPM and stream buffers, in
   that order, each faster than the one before (1.00x, 1.89x, 2.67x),
   every scenario correct. *)
let fig16_claim text =
  let rows =
    table ~header:"scenario" ~last:(fun l -> l = "" || String.starts_with ~prefix:"(paper" l) text
  in
  match rows with
  | [ ("private-spm+dma" :: _ as p); ("shared-spm" :: _ as s); ("stream-buffers" :: _ as b) ] -> (
      let read = function
        | _ :: total :: speedup :: correct :: _ ->
            (float_of_string total, percent speedup, correct = "true")
        | _ -> failwith "short Fig 16 row"
      in
      match (read p, read s, read b) with
      | (tp, xp, cp), (ts, xs, cs), (tb, xb, cb) ->
          if not (cp && cs && cb) then Error "a scenario is not correct"
          else if xp <> 1.0 then Error (Printf.sprintf "the baseline reads %.2fx" xp)
          else if not (xp < xs && xs < xb && tp > ts && ts > tb) then
            Error
              (Printf.sprintf "not private < shared < streams: %.2fx, %.2fx, %.2fx" xp xs xb)
          else Ok ())
  | _ -> Error "the rows are not private-spm+dma, shared-spm, stream-buffers in that order"

(* Fig 12: every benchmark's datapath area within 1.4% of the ASIC
   reference, either way. *)
let fig12_claim text =
  let rows =
    table ~header:"benchmark" ~last:(fun l -> l = "" || String.starts_with ~prefix:"average" l) text
  in
  let outside =
    List.filter_map
      (function
        | [ name; _; _; err ] ->
            if Float.abs (percent err) <= 1.4 then None else Some (name ^ " " ^ err)
        | ws -> Some ("unreadable row: " ^ String.concat " " ws))
      rows
  in
  if List.length rows <> 9 then Error (Printf.sprintf "%d benchmarks, not 9" (List.length rows))
  else if outside <> [] then Error ("outside ±1.4%: " ^ String.concat ", " outside)
  else Ok ()

let holds what claim text =
  match claim text with Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e

let refused what claim text =
  match claim text with
  | Ok () -> Alcotest.failf "%s: the claim still holds" what
  | Error _ -> ()

(* [s] with the first [sub] in it replaced by [by] *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec at i = if String.sub s i n = sub then i else at (i + 1) in
  let i = at 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* [text] with each line that starts with a key of [edits] passed
   through its edit *)
let edit_lines edits text =
  String.concat "\n"
    (List.map
       (fun l ->
         match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix l) edits with
         | Some (_, f) -> f l
         | None -> l)
       (String.split_on_char '\n' text))

let line_of text prefix =
  List.find (String.starts_with ~prefix) (String.split_on_char '\n' text)

let test_fig16 () =
  let text = golden "fig16.out" in
  holds "Fig 16 golden" fig16_claim text;
  let shared = line_of text "shared-spm" and streams = line_of text "stream-buffers" in
  refused "Fig 16 with the shared-spm and stream-buffers rows swapped" fig16_claim
    (edit_lines [ ("shared-spm", fun _ -> streams); ("stream-buffers", fun _ -> shared) ] text);
  refused "Fig 16 with the shared-spm and stream-buffers speedups swapped" fig16_claim
    (edit_lines
       [
         ("shared-spm", replace ~sub:"1.89x" ~by:"2.67x");
         ("stream-buffers", replace ~sub:"2.67x" ~by:"1.89x");
       ]
       text)

let test_fig12 () =
  let text = golden "fig12.out" in
  holds "Fig 12 golden" fig12_claim text;
  refused "Fig 12 with md_knn_64x16 at +2.00%" fig12_claim
    (edit_lines [ ("md_knn_64x16", replace ~sub:"-1.40%" ~by:"+2.00%") ] text)

let suite =
  [
    Alcotest.test_case "Fig 16 claim: private < shared SPM < streams" `Quick test_fig16;
    Alcotest.test_case "Fig 12 claim: every area error within ±1.4%" `Quick test_fig12;
  ]
