type value = Int of int64 | Float of float | Bool of bool | Str of string

let escape s =
  let b = Buffer.create (String.length s + 8) in
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
    s;
  Buffer.contents b

let encode_value = function
  | Int i -> Int64.to_string i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.17g" f
      else "\"" ^ Printf.sprintf "%h" f ^ "\""
  | Bool b -> if b then "true" else "false"
  | Str s -> "\"" ^ escape s ^ "\""

let encode fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ encode_value v) fields)
  ^ "}"

(* --- parser ------------------------------------------------------------- *)

exception Bad of string

let decode line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match line.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
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
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_scalar () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('{' | '[') -> fail "nested values are not supported"
    | _ ->
        let start = !pos in
        while
          !pos < n && (match line.[!pos] with ',' | '}' | ' ' | '\t' -> false | _ -> true)
        do
          advance ()
        done;
        let tok = String.sub line start (!pos - start) in
        if tok = "" then fail "empty value"
        else if tok = "true" then Bool true
        else if tok = "false" then Bool false
        else if tok = "null" then fail "null is not supported"
        else if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') tok then
          match Int64.of_string_opt tok with
          | Some i -> Int i
          | None -> fail "bad integer"
        else (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  try
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_scalar () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
              advance ();
              members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ());
    skip_ws ();
    if !pos <> n then fail "trailing garbage"
    else Ok (List.rev !fields)
  with Bad msg -> Error msg

let get_int fields k =
  match List.assoc_opt k fields with Some (Int i) -> Some i | _ -> None

let get_float fields k =
  match List.assoc_opt k fields with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (Int64.to_float i)
  | Some (Str s) -> float_of_string_opt s (* non-finite floats stored as "%h" strings *)
  | _ -> None

let get_bool fields k =
  match List.assoc_opt k fields with Some (Bool b) -> Some b | _ -> None

let get_str fields k =
  match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
