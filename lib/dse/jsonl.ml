type value = Int of int64 | Float of float | Bool of bool | Str of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

let add_value b = function
  | Int i -> Buffer.add_string b (Int64.to_string i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else (
        Buffer.add_char b '"';
        Buffer.add_string b (Printf.sprintf "%h" f);
        Buffer.add_char b '"')
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'

let add_member b ~first k v =
  Buffer.add_string b (if first then "{\"" else ",\"");
  add_escaped b k;
  Buffer.add_string b "\":";
  add_value b v

let encode fields =
  let b = Buffer.create 256 in
  (match fields with
  | [] -> Buffer.add_char b '{'
  | (k, v) :: rest ->
      add_member b ~first:true k v;
      List.iter (fun (k, v) -> add_member b ~first:false k v) rest);
  Buffer.add_char b '}';
  Buffer.contents b

(* --- parser ------------------------------------------------------------- *)

exception Bad of string

(* JSON's number grammar: an optional '-', then 0 or digits without a
   leading 0, an optional fraction ('.' and digits) and an optional
   exponent ('e' or 'E', an optional sign, digits). [`Int] for a bare
   integer, [`Float] for any other number. OCaml's own literal syntax
   (underscores, hex, "nan", "inf") is [`Bad]. *)
let number_kind tok =
  let n = String.length tok in
  let digits i =
    let j = ref i in
    while !j < n && tok.[!j] >= '0' && tok.[!j] <= '9' do
      incr j
    done;
    !j
  in
  let i = if n > 0 && tok.[0] = '-' then 1 else 0 in
  let int_end = digits i in
  if int_end = i || (tok.[i] = '0' && int_end > i + 1) then `Bad
  else
    let frac_end =
      if int_end < n && tok.[int_end] = '.' then
        let j = digits (int_end + 1) in
        if j = int_end + 1 then -1 else j
      else int_end
    in
    if frac_end < 0 then `Bad
    else
      let exp_end =
        if frac_end < n && (tok.[frac_end] = 'e' || tok.[frac_end] = 'E') then
          let s = frac_end + 1 in
          let s = if s < n && (tok.[s] = '+' || tok.[s] = '-') then s + 1 else s in
          let j = digits s in
          if j = s then -1 else j
        else frac_end
      in
      if exp_end <> n then `Bad else if exp_end = int_end then `Int else `Float

let iter_fields line f =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && line.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  (* the escape loop, entered only for strings that have escapes *)
  let escaped b =
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match line.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   (* exactly four hex digits: [int_of_string] would also
                      take OCaml literal syntax such as "0_41" *)
                   let digit k =
                     match line.[!pos + 1 + k] with
                     | '0' .. '9' as c -> Char.code c - Char.code '0'
                     | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                     | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                     | _ -> fail "bad \\u escape"
                   in
                   let code = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
                   (* store is ASCII; anything else round-trips as '?' *)
                   Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
                   pos := !pos + 5
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  (* a string with no escapes is sliced straight out of the line *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && line.[!pos] <> '"' && line.[!pos] <> '\\' do
      incr pos
    done;
    if !pos >= n then fail "unterminated string"
    else if line.[!pos] = '"' then (
      incr pos;
      String.sub line start (!pos - 1 - start))
    else
      let b = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring b line start (!pos - start);
      escaped b
  in
  let parse_scalar () =
    skip_ws ();
    if !pos >= n then fail "empty value"
    else
      match line.[!pos] with
      | '"' -> Str (parse_string ())
      | '{' | '[' -> fail "nested values are not supported"
      | _ -> (
          let start = !pos in
          while
            !pos < n && (match line.[!pos] with ',' | '}' | ' ' | '\t' -> false | _ -> true)
          do
            incr pos
          done;
          let tok = String.sub line start (!pos - start) in
          match tok with
          | "" -> fail "empty value"
          | "true" -> Bool true
          | "false" -> Bool false
          | "null" -> fail "null is not supported"
          (* an int64 has no negative zero; keep the float's sign *)
          | "-0" -> Float (-0.0)
          | _ -> (
              match number_kind tok with
              | `Int -> (
                  match Int64.of_string_opt tok with
                  | Some i -> Int i
                  | None -> fail "integer out of range")
              | `Float -> Float (float_of_string tok)
              | `Bad -> fail (Printf.sprintf "bad number %S" tok)))
  in
  try
    expect '{';
    skip_ws ();
    (if !pos < n && line.[!pos] = '}' then incr pos
     else
       let rec members () =
         skip_ws ();
         let k = parse_string () in
         expect ':';
         f k (parse_scalar ());
         skip_ws ();
         if !pos < n && line.[!pos] = ',' then (
           incr pos;
           members ())
         else if !pos < n && line.[!pos] = '}' then incr pos
         else fail "expected ',' or '}'"
       in
       members ());
    skip_ws ();
    if !pos <> n then fail "trailing garbage" else Ok ()
  with Bad msg -> Error msg

let decode line =
  let fields = ref [] in
  match iter_fields line (fun k v -> fields := (k, v) :: !fields) with
  | Ok () -> Ok (List.rev !fields)
  | Error _ as e -> e

let get_int fields k =
  match List.assoc_opt k fields with Some (Int i) -> Some i | _ -> None

let get_bool fields k =
  match List.assoc_opt k fields with Some (Bool b) -> Some b | _ -> None

let get_str fields k =
  match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (Int64.to_float i)
  (* the "%h" spellings [encode] writes for non-finite floats *)
  | Str "nan" -> Some Float.nan
  | Str "-nan" -> Some (Float.neg Float.nan)
  | Str "infinity" -> Some Float.infinity
  | Str "-infinity" -> Some Float.neg_infinity
  | Str _ | Bool _ -> None

let to_int i =
  if Int64.compare i (Int64.of_int min_int) >= 0 && Int64.compare i (Int64.of_int max_int) <= 0
  then Some (Int64.to_int i)
  else None
