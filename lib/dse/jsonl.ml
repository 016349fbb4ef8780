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

(* the decimal digits of [n <= 0], most significant first: min_int has
   no positive counterpart *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then (
    Buffer.add_char b '-';
    add_neg_digits b n)
  else add_neg_digits b (-n)

(* what [Printf.sprintf "%.17g"] writes for a finite float, without the
   format interpreter *)
external format_float : string -> float -> string = "caml_format_float"

let add_value b = function
  | Int i ->
      let n = Int64.to_int i in
      if Int64.of_int n = i then add_int b n else Buffer.add_string b (Int64.to_string i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (format_float "%.17g" f)
      else (
        Buffer.add_char b '"';
        Buffer.add_string b (Printf.sprintf "%h" f);
        Buffer.add_char b '"')
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'

let add_key b ~first k =
  Buffer.add_string b (if first then "{\"" else ",\"");
  add_escaped b k;
  Buffer.add_string b "\":"

let add_member b ~first k v =
  add_key b ~first k;
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

type kind = Integer | Number | True | False | String

(* [line.[start .. stop-1]], a bare integer (an optional '-', then
   digits), is at most [limit]'s magnitude: [limit] holds the 19 digits
   of the largest magnitude allowed, [neg_limit] those of the most
   negative value. Digit strings of one length compare as numbers. *)
let within line start stop ~limit ~neg_limit =
  let neg = line.[start] = '-' in
  let first = if neg then start + 1 else start in
  let n = stop - first in
  n < 19
  || n = 19
     &&
     let bound = if neg then neg_limit else limit in
     let i = ref 0 in
     while !i < 19 && String.unsafe_get line (first + !i) = String.unsafe_get bound !i do
       incr i
     done;
     !i = 19 || String.unsafe_get line (first + !i) < String.unsafe_get bound !i

let fits_int64 line start stop =
  within line start stop ~limit:"9223372036854775807" ~neg_limit:"9223372036854775808"

(* [line.[j]], or a delimiter past the end *)
let[@inline] byte line j = if j < String.length line then String.unsafe_get line j else ','
let[@inline] is_digit c = c >= '0' && c <= '9'

(* JSON's number grammar from [line.[start]] up to a delimiter (',',
   '}', a space, a tab or the end of the line): an optional '-', then 0
   or digits without a leading 0, an optional fraction ('.' and digits)
   and an optional exponent ('e' or 'E', an optional sign, digits). The
   token's end [stop] for a bare integer, [-stop - 2] for any other
   number, and [-1] when the bytes up to the delimiter are not a number:
   OCaml's own literal syntax (underscores, hex, "nan", "inf") is not. *)
let fast_number line start =
  let j = ref (if byte line start = '-' then start + 1 else start) in
  let i = !j in
  while is_digit (byte line !j) do
    incr j
  done;
  if !j = i || (byte line i = '0' && !j > i + 1) then -1
  else begin
    let int_end = !j in
    if byte line !j = '.' then begin
      incr j;
      let f = !j in
      while is_digit (byte line !j) do
        incr j
      done;
      if !j = f then j := -1
    end;
    if !j >= 0 && (byte line !j = 'e' || byte line !j = 'E') then begin
      incr j;
      if byte line !j = '+' || byte line !j = '-' then incr j;
      let e = !j in
      while is_digit (byte line !j) do
        incr j
      done;
      if !j = e then j := -1
    end;
    if !j < 0 then -1
    else
      match byte line !j with
      | ',' | '}' | ' ' | '\t' -> if !j = int_end then !j else - !j - 2
      | _ -> -1
  end

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

(* The cursor: the line, the offset it has reached, whether the object
   is open or closed, and the last member read — its key the [klen]
   bytes of [ksrc] from [koff], its value the [len] bytes of [src] from
   [off], a token of [kind]. [ksrc] and [src] are the line unless the
   key or the string value had escapes. *)
type cursor = {
  line : string;
  mutable pos : int;
  mutable opened : bool;
  mutable closed : bool;
  mutable ksrc : string;
  mutable koff : int;
  mutable klen : int;
  mutable kind : kind;
  mutable src : string;
  mutable off : int;
  mutable len : int;
  mutable int : int;
}

exception Syntax of string

let cursor line =
  {
    line;
    pos = 0;
    opened = false;
    closed = false;
    ksrc = line;
    koff = 0;
    klen = 0;
    kind = True;
    src = line;
    off = 0;
    len = 0;
    int = 0;
  }

let fail sc msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg sc.pos))

(* the first byte of [line] from [j] on that is not a space or a tab *)
let rec skip_spaces line j =
  if j < String.length line && (String.unsafe_get line j = ' ' || String.unsafe_get line j = '\t')
  then skip_spaces line (j + 1)
  else j

(* most tokens have no space before them *)
let[@inline] skip line j =
  if j < String.length line && (String.unsafe_get line j = ' ' || String.unsafe_get line j = '\t')
  then skip_spaces line (j + 1)
  else j

let expect sc c =
  sc.pos <- skip sc.line sc.pos;
  if sc.pos < String.length sc.line && String.unsafe_get sc.line sc.pos = c then
    sc.pos <- sc.pos + 1
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

(* The end of the plain bytes of a string from [j] on: its closing
   quote, a backslash, or the end of the line. Eight bytes at a time
   while none of them is either: a word [x] holds a zero byte exactly
   when [(x - 0x01..01) land (lnot x) land 0x80..80] is not zero, and
   [x lxor 0x22..22] has one where [x] has a quote ([0x5c]: a
   backslash). *)
let plain_end line j =
  let n = String.length line in
  let j = ref j in
  while
    !j + 8 <= n
    &&
    let x = String.get_int64_le line !j in
    let q = Int64.logxor x 0x2222222222222222L and b = Int64.logxor x 0x5c5c5c5c5c5c5c5cL in
    Int64.logand
      (Int64.logor
         (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
         (Int64.logand (Int64.sub b 0x0101010101010101L) (Int64.lognot b)))
      0x8080808080808080L
    = 0L
  do
    j := !j + 8
  done;
  while !j < n && String.unsafe_get line !j <> '"' && String.unsafe_get line !j <> '\\' do
    incr j
  done;
  !j

(* A string whose bytes start at [start] and whose plain bytes end at
   [stop] without a closing quote, unescaped: [sc.pos] is left after
   it. *)
let unescape sc start stop =
  sc.pos <- stop;
  if stop >= String.length sc.line then fail sc "unterminated string";
  let b = Buffer.create (2 * (stop - start) + 16) in
  Buffer.add_substring b sc.line start (stop - start);
  escaped sc b;
  Buffer.contents b

(* A value at [p] that is neither a string nor a number: [true],
   [false], or an error naming what is there. [sc.pos] is left after
   it. *)
let scan_literal sc p =
  let line = sc.line and n = String.length sc.line in
  sc.pos <- p;
  if p >= n then fail sc "empty value"
  else
    match String.unsafe_get line p with
    | '{' | '[' -> fail sc "nested values are not supported"
    | _ ->
        let j = ref p in
        while
          !j < n
          && match String.unsafe_get line !j with ',' | '}' | ' ' | '\t' -> false | _ -> true
        do
          incr j
        done;
        sc.pos <- !j;
        let len = !j - p in
        if len = 0 then fail sc "empty value"
        else if key_is line p len "true" then True
        else if key_is line p len "false" then False
        else if key_is line p len "null" then fail sc "null is not supported"
        else fail sc (Printf.sprintf "bad number %S" (String.sub line p len))

(* [sc.src] is the line again; a physical test first spares the write
   barrier on the common path *)
let[@inline] from_line sc = if sc.src != sc.line then sc.src <- sc.line

let value sc =
  let line = sc.line and n = String.length sc.line in
  let p = skip line sc.pos in
  let ch = byte line p in
  if ch = '"' then (
    let q = plain_end line (p + 1) in
    if q < n && String.unsafe_get line q = '"' then (
      from_line sc;
      sc.off <- p + 1;
      sc.len <- q - p - 1;
      sc.pos <- q + 1)
    else (
      let s = unescape sc (p + 1) q in
      sc.src <- s;
      sc.off <- 0;
      sc.len <- String.length s);
    sc.kind <- String)
  else
    let e = if ch = '-' || is_digit ch then fast_number line p else -1 in
    from_line sc;
    sc.off <- p;
    if e = -1 then (
      sc.kind <- scan_literal sc p;
      sc.len <- sc.pos - p)
    else
      let stop = if e >= 0 then e else -e - 2 in
      sc.len <- stop - p;
      sc.pos <- stop;
      (* an int64 has no negative zero; a float keeps the sign *)
      if e < 0 || key_is line p (stop - p) "-0" then sc.kind <- Number
      else if fits_int64 line p stop then sc.kind <- Integer
      else fail sc "integer out of range"

(* the key of a member whose separator has been read, then its ':' and
   its value *)
let key_and_value sc =
  let line = sc.line and n = String.length sc.line in
  let p = skip line sc.pos in
  if not (p < n && line.[p] = '"') then (
    sc.pos <- p;
    fail sc "expected '\"'");
  let q = plain_end line (p + 1) in
  if q < n && line.[q] = '"' then (
    if sc.ksrc != line then sc.ksrc <- line;
    sc.koff <- p + 1;
    sc.klen <- q - p - 1;
    sc.pos <- q + 1)
  else (
    let k = unescape sc (p + 1) q in
    sc.ksrc <- k;
    sc.koff <- 0;
    sc.klen <- String.length k);
  let p = skip line sc.pos in
  if p < n && line.[p] = ':' then sc.pos <- p + 1
  else (
    sc.pos <- p;
    expect sc ':');
  value sc

(* the closing '}' read: nothing but spaces may follow *)
let close sc =
  sc.closed <- true;
  sc.pos <- skip sc.line sc.pos;
  if sc.pos <> String.length sc.line then fail sc "trailing garbage"

let member sc =
  let line = sc.line and n = String.length sc.line in
  if sc.closed then false
  else if not sc.opened then begin
    expect sc '{';
    sc.opened <- true;
    sc.pos <- skip line sc.pos;
    if sc.pos < n && line.[sc.pos] = '}' then (
      sc.pos <- sc.pos + 1;
      close sc;
      false)
    else (
      key_and_value sc;
      true)
  end
  else begin
    let p = skip line sc.pos in
    sc.pos <- p;
    if p < n && line.[p] = ',' then (
      sc.pos <- p + 1;
      key_and_value sc;
      true)
    else if p < n && line.[p] = '}' then (
      sc.pos <- p + 1;
      close sc;
      false)
    else fail sc "expected ',' or '}'"
  end

let head sc h =
  let line = sc.line and p = sc.pos and k = String.length h in
  p + k < String.length line
  && String.unsafe_get line p = (if sc.opened then ',' else '{')
  && key_is line (p + 1) k h
  && begin
       sc.pos <- p + 1 + k;
       sc.opened <- true;
       true
     end

let plain_int sc =
  let line = sc.line and n = String.length sc.line in
  let neg = sc.pos < n && String.unsafe_get line sc.pos = '-' in
  let first = if neg then sc.pos + 1 else sc.pos in
  let j = ref first and acc = ref 0 in
  while !j < n && is_digit (String.unsafe_get line !j) do
    acc := (!acc * 10) + Char.code (String.unsafe_get line !j) - 48;
    incr j
  done;
  let digits = !j - first in
  digits > 0 && digits <= 18
  && (digits = 1 || String.unsafe_get line first <> '0')
  && !j < n
  && (String.unsafe_get line !j = ',' || String.unsafe_get line !j = '}')
  (* "-0" is a [Number]: a float keeps its sign *)
  && (not (neg && !acc = 0))
  && begin
       sc.pos <- !j;
       sc.int <- (if neg then - !acc else !acc);
       true
     end

(* --- reading a member's value ------------------------------------------- *)

exception Out_of_range

(* An [Integer] token (so already within the int64 range), accumulated
   negatively so that the most negative value fits. *)
let int64_at src off len =
  let neg = src.[off] = '-' in
  let acc = ref 0L in
  for j = (if neg then off + 1 else off) to off + len - 1 do
    acc := Int64.sub (Int64.mul !acc 10L) (Int64.of_int (Char.code (String.unsafe_get src j) - 48))
  done;
  if neg then !acc else Int64.neg !acc

let int_at src off len =
  if
    len >= 19
    && not (within src off (off + len) ~limit:"4611686018427387903" ~neg_limit:"4611686018427387904")
  then raise Out_of_range;
  let neg = src.[off] = '-' in
  let acc = ref 0 in
  for j = (if neg then off + 1 else off) to off + len - 1 do
    acc := (!acc * 10) - (Char.code (String.unsafe_get src j) - 48)
  done;
  if neg then !acc else - !acc

exception Not_a_float

let float_at kind src off len =
  match kind with
  | Number -> float_of_string (String.sub src off len)
  | Integer -> Int64.to_float (int64_at src off len)
  (* the "%h" spellings [encode] writes for non-finite floats *)
  | String ->
      if key_is src off len "nan" then Float.nan
      else if key_is src off len "-nan" then Float.neg Float.nan
      else if key_is src off len "infinity" then Float.infinity
      else if key_is src off len "-infinity" then Float.neg_infinity
      else raise Not_a_float
  | True | False -> raise Not_a_float
