type value = Int of int64 | Float of float | Bool of bool | Str of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* [String.exists needs_escape], without its closure *)
let has_escapes s =
  let i = ref 0 in
  while !i < String.length s && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  !i < String.length s

let add_escaped b s =
  if not (has_escapes s) then Buffer.add_string b s
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

(* the end of the run of digits in [line] from [i], before [stop] *)
let digits_end line i stop =
  let j = ref i in
  while !j < stop && String.unsafe_get line !j >= '0' && String.unsafe_get line !j <= '9' do
    incr j
  done;
  !j

(* JSON's number grammar over [line]'s bytes [start, stop): an optional
   '-', then 0 or digits without a leading 0, an optional fraction ('.'
   and digits) and an optional exponent ('e' or 'E', an optional sign,
   digits). [`Int] for a bare integer, [`Float] for any other number.
   OCaml's own literal syntax (underscores, hex, "nan", "inf") is
   [`Bad]. *)
let number_kind line start stop =
  let i = if start < stop && line.[start] = '-' then start + 1 else start in
  let int_end = digits_end line i stop in
  if int_end = i || (line.[i] = '0' && int_end > i + 1) then `Bad
  else
    let frac_end =
      if int_end < stop && line.[int_end] = '.' then
        let j = digits_end line (int_end + 1) stop in
        if j = int_end + 1 then -1 else j
      else int_end
    in
    if frac_end < 0 then `Bad
    else
      let exp_end =
        if frac_end < stop && (line.[frac_end] = 'e' || line.[frac_end] = 'E') then
          let s = frac_end + 1 in
          let s = if s < stop && (line.[s] = '+' || line.[s] = '-') then s + 1 else s in
          let j = digits_end line s stop in
          if j = s then -1 else j
        else frac_end
      in
      if exp_end <> stop then `Bad else if exp_end = int_end then `Int else `Float

exception Out_of_range

(* The bare integer [line.[start .. stop-1]] (already checked against
   the grammar), accumulated negatively so that [Int64.min_int] fits.
   Raises [Out_of_range] outside the int64 range. *)
let int64_of_digits line start stop =
  let neg = line.[start] = '-' in
  let acc = ref 0L in
  for j = (if neg then start + 1 else start) to stop - 1 do
    let d = Int64.of_int (Char.code line.[j] - Char.code '0') in
    (* acc * 10 - d >= min_int *)
    if !acc < Int64.div (Int64.add Int64.min_int d) 10L then raise Out_of_range;
    acc := Int64.sub (Int64.mul !acc 10L) d
  done;
  if neg then !acc
  else if !acc = Int64.min_int then raise Out_of_range
  else Int64.neg !acc

let key_is src off len k =
  len = String.length k
  &&
  (* eight bytes at a time, then the tail *)
  let i = ref 0 in
  while !i + 8 <= len && String.get_int64_ne src (off + !i) = String.get_int64_ne k !i do
    i := !i + 8
  done;
  while !i < len && String.unsafe_get src (off + !i) = String.unsafe_get k !i do
    incr i
  done;
  !i = len

let find_key keys src off len =
  let i = ref 0 in
  while !i < Array.length keys && not (key_is src off len keys.(!i)) do
    incr i
  done;
  if !i < Array.length keys then !i else -1

(* The scanner: the line, the offset it has reached, and the last
   string it read — [len] bytes of [src] from [off], where [src] is the
   line itself unless the string had escapes. *)
type scanner = {
  line : string;
  mutable pos : int;
  mutable src : string;
  mutable off : int;
  mutable len : int;
}

let fail sc msg = raise (Bad (Printf.sprintf "%s at offset %d" msg sc.pos))

(* the scanning loops run on a local index and store it once *)
let skip_ws sc =
  let line = sc.line in
  let j = ref sc.pos in
  while
    !j < String.length line
    && match String.unsafe_get line !j with ' ' | '\t' -> true | _ -> false
  do
    incr j
  done;
  sc.pos <- !j

let expect sc c =
  skip_ws sc;
  if sc.pos < String.length sc.line && sc.line.[sc.pos] = c then sc.pos <- sc.pos + 1
  else fail sc (Printf.sprintf "expected '%c'" c)

(* the rest of a string that has escapes, unescaped into [b] *)
let rec escaped sc b =
  let line = sc.line and n = String.length sc.line in
  if sc.pos >= n then fail sc "unterminated string"
  else
    match line.[sc.pos] with
    | '"' -> sc.pos <- sc.pos + 1
    | '\\' ->
        sc.pos <- sc.pos + 1;
        (if sc.pos >= n then fail sc "unterminated escape"
         else
           let add c =
             Buffer.add_char b c;
             sc.pos <- sc.pos + 1
           in
           match line.[sc.pos] with
           | '"' -> add '"'
           | '\\' -> add '\\'
           | '/' -> add '/'
           | 'n' -> add '\n'
           | 'r' -> add '\r'
           | 't' -> add '\t'
           | 'u' ->
               if sc.pos + 4 >= n then fail sc "truncated \\u escape";
               (* exactly four hex digits: [int_of_string] would also
                  take OCaml literal syntax such as "0_41" *)
               let digit k =
                 match line.[sc.pos + 1 + k] with
                 | '0' .. '9' as c -> Char.code c - Char.code '0'
                 | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                 | _ -> fail sc "bad \\u escape"
               in
               let code = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
               (* store is ASCII; anything else round-trips as '?' *)
               Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
               sc.pos <- sc.pos + 5
           | c -> fail sc (Printf.sprintf "bad escape '\\%c'" c));
        escaped sc b
    | c ->
        Buffer.add_char b c;
        sc.pos <- sc.pos + 1;
        escaped sc b

(* a string: one with no escapes is left in the line, where it is *)
let scan_string sc =
  expect sc '"';
  let line = sc.line and n = String.length sc.line in
  let start = sc.pos in
  let j = ref start in
  while !j < n && String.unsafe_get line !j <> '"' && String.unsafe_get line !j <> '\\' do
    incr j
  done;
  sc.pos <- !j;
  if sc.pos >= n then fail sc "unterminated string"
  else if line.[sc.pos] = '"' then (
    sc.pos <- sc.pos + 1;
    sc.src <- line;
    sc.off <- start;
    sc.len <- sc.pos - 1 - start)
  else
    let b = Buffer.create (2 * (sc.pos - start) + 16) in
    Buffer.add_substring b line start (sc.pos - start);
    escaped sc b;
    sc.src <- Buffer.contents b;
    sc.off <- 0;
    sc.len <- String.length sc.src

let parse_scalar sc =
  skip_ws sc;
  let line = sc.line and n = String.length sc.line in
  if sc.pos >= n then fail sc "empty value"
  else
    match line.[sc.pos] with
    | '"' ->
        scan_string sc;
        Str (if sc.src == line then String.sub line sc.off sc.len else sc.src)
    | '{' | '[' -> fail sc "nested values are not supported"
    | _ -> (
        let start = sc.pos in
        let j = ref start in
        while
          !j < n
          && match String.unsafe_get line !j with ',' | '}' | ' ' | '\t' -> false | _ -> true
        do
          incr j
        done;
        sc.pos <- !j;
        let len = sc.pos - start in
        if len = 0 then fail sc "empty value"
        else
          match line.[start] with
          | 't' when key_is line start len "true" -> Bool true
          | 'f' when key_is line start len "false" -> Bool false
          | 'n' when key_is line start len "null" -> fail sc "null is not supported"
          (* an int64 has no negative zero; keep the float's sign *)
          | '-' when key_is line start len "-0" -> Float (-0.0)
          | _ -> (
              match number_kind line start sc.pos with
              | `Int -> (
                  match int64_of_digits line start sc.pos with
                  | i -> Int i
                  | exception Out_of_range -> fail sc "integer out of range")
              | `Float -> Float (float_of_string (String.sub line start len))
              | `Bad -> fail sc (Printf.sprintf "bad number %S" (String.sub line start len))))

let iter_fields line f =
  let sc = { line; pos = 0; src = line; off = 0; len = 0 } in
  let n = String.length line in
  try
    expect sc '{';
    skip_ws sc;
    if sc.pos < n && line.[sc.pos] = '}' then sc.pos <- sc.pos + 1
    else begin
      let more = ref true in
      while !more do
        skip_ws sc;
        scan_string sc;
        let src = sc.src and off = sc.off and len = sc.len in
        expect sc ':';
        f src off len (parse_scalar sc);
        skip_ws sc;
        if sc.pos < n && line.[sc.pos] = ',' then sc.pos <- sc.pos + 1
        else if sc.pos < n && line.[sc.pos] = '}' then (
          sc.pos <- sc.pos + 1;
          more := false)
        else fail sc "expected ',' or '}'"
      done
    end;
    skip_ws sc;
    if sc.pos <> n then fail sc "trailing garbage" else Ok ()
  with Bad msg -> Error msg

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
  if i >= Int64.of_int min_int && i <= Int64.of_int max_int
  then Some (Int64.to_int i)
  else None
