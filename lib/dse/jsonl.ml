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

(* [line.[j]], or a delimiter at [stop] and past it *)
let[@inline] byte line stop j = if j < stop then String.unsafe_get line j else ','
let[@inline] is_digit c = c >= '0' && c <= '9'

(* JSON's number grammar from [line.[start]] up to a delimiter (',',
   '}', a space, a tab or [stop], the end of the line): an optional '-', then 0
   or digits without a leading 0, an optional fraction ('.' and digits)
   and an optional exponent ('e' or 'E', an optional sign, digits). The
   token's end [stop] for a bare integer, [-stop - 2] for any other
   number, and [-1] when the bytes up to the delimiter are not a number:
   OCaml's own literal syntax (underscores, hex, "nan", "inf") is not. *)
let fast_number line stop start =
  let j = ref (if byte line stop start = '-' then start + 1 else start) in
  let i = !j in
  while is_digit (byte line stop !j) do
    incr j
  done;
  if !j = i || (byte line stop i = '0' && !j > i + 1) then -1
  else begin
    let int_end = !j in
    if byte line stop !j = '.' then begin
      incr j;
      let f = !j in
      while is_digit (byte line stop !j) do
        incr j
      done;
      if !j = f then j := -1
    end;
    if !j >= 0 && (byte line stop !j = 'e' || byte line stop !j = 'E') then begin
      incr j;
      if byte line stop !j = '+' || byte line stop !j = '-' then incr j;
      let e = !j in
      while is_digit (byte line stop !j) do
        incr j
      done;
      if !j = e then j := -1
    end;
    if !j < 0 then -1
    else
      match byte line stop !j with
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

(* The cursor: the line (the bytes of [line] from [base] up to [stop]),
   the offset it has reached, whether the object is open or closed, and the last member read — its key the [klen]
   bytes of [ksrc] from [koff], its value the [len] bytes of [src] from
   [off], a token of [kind]. [ksrc] and [src] are the line unless the
   key or the string value had escapes. *)
type cursor = {
  line : string;
  base : int;
  stop : int;
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

let cursor_sub line off len =
  {
    line;
    base = off;
    stop = off + len;
    pos = off;
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

let cursor line = cursor_sub line 0 (String.length line)

let fail sc msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg (sc.pos - sc.base)))

(* the first byte of [line] from [j] on that is not a space or a tab *)
let rec skip_spaces line stop j =
  if j < stop && (String.unsafe_get line j = ' ' || String.unsafe_get line j = '\t') then
    skip_spaces line stop (j + 1)
  else j

(* most tokens have no space before them *)
let[@inline] skip line stop j =
  if j < stop && (String.unsafe_get line j = ' ' || String.unsafe_get line j = '\t') then
    skip_spaces line stop (j + 1)
  else j

let expect sc c =
  sc.pos <- skip sc.line sc.stop sc.pos;
  if sc.pos < sc.stop && String.unsafe_get sc.line sc.pos = c then
    sc.pos <- sc.pos + 1
  else fail sc (Printf.sprintf "expected '%c'" c)

(* the rest of a string that has escapes, unescaped into [b] *)
let rec escaped sc b =
  let line = sc.line and n = sc.stop in
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
let plain_end line n j =
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
  if stop >= sc.stop then fail sc "unterminated string";
  let b = Buffer.create (2 * (stop - start) + 16) in
  Buffer.add_substring b sc.line start (stop - start);
  escaped sc b;
  Buffer.contents b

(* A value at [p] that is neither a string nor a number: [true],
   [false], or an error naming what is there. [sc.pos] is left after
   it. *)
let scan_literal sc p =
  let line = sc.line and n = sc.stop in
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
  let line = sc.line and n = sc.stop in
  let p = skip line n sc.pos in
  let ch = byte line n p in
  if ch = '"' then (
    let q = plain_end line n (p + 1) in
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
    let e = if ch = '-' || is_digit ch then fast_number line n p else -1 in
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
  let line = sc.line and n = sc.stop in
  let p = skip line n sc.pos in
  if not (p < n && line.[p] = '"') then (
    sc.pos <- p;
    fail sc "expected '\"'");
  let q = plain_end line n (p + 1) in
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
  let p = skip line n sc.pos in
  if p < n && line.[p] = ':' then sc.pos <- p + 1
  else (
    sc.pos <- p;
    expect sc ':');
  value sc

(* the closing '}' read: nothing but spaces may follow *)
let close sc =
  sc.closed <- true;
  sc.pos <- skip sc.line sc.stop sc.pos;
  if sc.pos <> sc.stop then fail sc "trailing garbage"

let member sc =
  let line = sc.line and n = sc.stop in
  if sc.closed then false
  else if not sc.opened then begin
    expect sc '{';
    sc.opened <- true;
    sc.pos <- skip line n sc.pos;
    if sc.pos < n && line.[sc.pos] = '}' then (
      sc.pos <- sc.pos + 1;
      close sc;
      false)
    else (
      key_and_value sc;
      true)
  end
  else begin
    let p = skip line n sc.pos in
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
  p + k < sc.stop
  && String.unsafe_get line p = (if sc.opened then ',' else '{')
  && key_is line (p + 1) k h
  && begin
       sc.pos <- p + 1 + k;
       sc.opened <- true;
       true
     end

let plain_int sc =
  let line = sc.line and n = sc.stop in
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

(* --- exact decimal reads --------------------------------------------------- *)

(* The high word of the unsigned 128-bit product [a * b] (its low word
   is [Int64.mul a b]). *)
let[@inline] umulh a b =
  let open Int64 in
  let a0 = logand a 0xFFFFFFFFL and a1 = shift_right_logical a 32 in
  let b0 = logand b 0xFFFFFFFFL and b1 = shift_right_logical b 32 in
  let p01 = mul a0 b1 and p10 = mul a1 b0 in
  let mid =
    add
      (add (shift_right_logical (mul a0 b0) 32) (logand p01 0xFFFFFFFFL))
      (logand p10 0xFFFFFFFFL)
  in
  add
    (add (mul a1 b1) (shift_right_logical p01 32))
    (add (shift_right_logical p10 32) (shift_right_logical mid 32))

(* unsigned [a < b] *)
let[@inline] ult a b = Int64.compare (Int64.add a Int64.min_int) (Int64.add b Int64.min_int) < 0

let[@inline] leading_zeros w =
  let n = ref 0 and w = ref w in
  while Int64.compare !w 0L > 0 do
    w := Int64.shift_left !w 1;
    incr n
  done;
  !n

(* 10^0 .. 10^22, each exact as a double *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15; 1e16;
    1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* [w * 10^q] rounded to the nearest double, ties to even, for
   [0 < w < 2^64] (unsigned): Eisel-Lemire, as Go's strconv writes it
   after Wuffs. It multiplies the normalised [w] by the first 128 bits
   of 10^q ([Pow10], rounded down); the true product lies within a unit
   of the last place of that, so it decides the rounding unless the
   bits below the 54 it keeps are all ones or a tie. It returns [nan]
   when it cannot decide: for such a case, a result outside the normal
   range, or [q] past the table. *)
let[@inline] eisel_lemire w q =
  if q < Pow10.min_exp10 || q > Pow10.max_exp10 then Float.nan
  else
    let clz = leading_zeros w in
    let w = Int64.shift_left w clz in
    let i = 2 * (q - Pow10.min_exp10) in
    let p_hi = Array.unsafe_get Pow10.mantissas i in
    let x_hi = ref (umulh w p_hi) and x_lo = ref (Int64.mul w p_hi) in
    let undecided = ref false in
    (* the low word of 10^q's mantissa matters only when it could carry *)
    if Int64.logand !x_hi 0x1FFL = 0x1FFL && ult (Int64.add !x_lo w) w then begin
      let p_lo = Array.unsafe_get Pow10.mantissas (i + 1) in
      let y_hi = umulh w p_lo and y_lo = Int64.mul w p_lo in
      let lo = Int64.add !x_lo y_hi in
      if ult lo !x_lo then x_hi := Int64.succ !x_hi;
      x_lo := lo;
      undecided :=
        Int64.logand !x_hi 0x1FFL = 0x1FFL && Int64.add lo 1L = 0L && ult (Int64.add y_lo w) w
    end;
    let msb = Int64.to_int (Int64.shift_right_logical !x_hi 63) in
    let mant = Int64.shift_right_logical !x_hi (msb + 9) in
    let exp2 = ((217706 * q) asr 16) + 64 + 1023 - clz - (1 lxor msb) in
    if
      !undecided
      (* halfway between two doubles *)
      || (!x_lo = 0L && Int64.logand !x_hi 0x1FFL = 0L && Int64.logand mant 3L = 1L)
    then Float.nan
    else
      let mant = Int64.shift_right_logical (Int64.add mant (Int64.logand mant 1L)) 1 in
      let carry = Int64.to_int (Int64.shift_right_logical mant 53) in
      let mant = Int64.shift_right_logical mant carry and exp2 = exp2 + carry in
      (* subnormal, infinite or NaN: left to the runtime *)
      if exp2 <= 0 || exp2 >= 0x7FF then Float.nan
      else
        Int64.float_of_bits
          (Int64.logor (Int64.shift_left (Int64.of_int exp2) 52)
             (Int64.logand mant 0x000FFFFFFFFFFFFFL))

(* The eight bytes of [x], first byte lowest, are all digits. *)
let[@inline] eight_digits x =
  Int64.logand x 0xF0F0F0F0F0F0F0F0L = 0x3030303030303030L
  && Int64.logand (Int64.add x 0x0606060606060606L) 0xF0F0F0F0F0F0F0F0L = 0x3030303030303030L

(* ... and the number they spell, most significant first *)
let[@inline] eight_digits_value x =
  let open Int64 in
  let x = sub x 0x3030303030303030L in
  let x = shift_right_logical (mul x 2561L) 8 in
  let x = shift_right_logical (mul (logand x 0x00FF00FF00FF00FFL) 6553601L) 16 in
  shift_right_logical (mul (logand x 0x0000FFFF0000FFFFL) 42949672960001L) 32

(* A [Number] token ([len] bytes of [src] from [off], JSON's grammar)
   read where it lies: its significant digits, at most 19, as one
   unsigned integer [w] and its value as [w * 10^q]. Exact with one
   floating-point operation when [w] and 10^|q| both are doubles
   (Clinger), else by {!eisel_lemire}. [nan] when neither decides: more
   than 19 significant digits, or a case {!eisel_lemire} leaves. *)
let decimal_at src off len =
  let stop = off + len in
  let neg = len > 0 && String.unsafe_get src off = '-' in
  let j = ref (if neg then off + 1 else off) in
  let w = ref 0L and digits = ref 0 and q = ref 0 and fraction = ref false in
  while
    !j < stop
    && (is_digit (String.unsafe_get src !j) || (String.unsafe_get src !j = '.' && not !fraction))
  do
    let c = String.unsafe_get src !j in
    if !digits > 0 && !j + 8 <= stop && eight_digits (String.get_int64_le src !j) then begin
      w := Int64.add (Int64.mul !w 100_000_000L) (eight_digits_value (String.get_int64_le src !j));
      digits := !digits + 8;
      if !fraction then q := !q - 8;
      j := !j + 7
    end
    else if c = '.' then fraction := true
    else begin
      (* leading zeros are not significant *)
      if c <> '0' || !digits > 0 then begin
        w := Int64.add (Int64.mul !w 10L) (Int64.of_int (Char.code c - 48));
        incr digits
      end;
      if !fraction then decr q
    end;
    incr j
  done;
  if !j < stop then begin
    (* 'e' or 'E', an optional sign, digits; a magnitude past the
       table's reach is held at 100000 *)
    incr j;
    let eneg = !j < stop && String.unsafe_get src !j = '-' in
    if eneg || (!j < stop && String.unsafe_get src !j = '+') then incr j;
    let e = ref 0 in
    while !j < stop do
      if !e < 100_000 then e := (!e * 10) + Char.code (String.unsafe_get src !j) - 48;
      incr j
    done;
    q := if eneg then !q - !e else !q + !e
  end;
  let f =
    if !digits = 0 then 0.0
    else if !digits > 19 then Float.nan
    else if (not (ult 0x20000000000000L !w)) && !q >= -22 && !q <= 22 then
      if !q >= 0 then Int64.to_float !w *. Array.unsafe_get exact_pow10 !q
      else Int64.to_float !w /. Array.unsafe_get exact_pow10 (- !q)
    else eisel_lemire !w !q
  in
  if neg then Float.neg f else f

exception Not_a_float

let float_at kind src off len =
  match kind with
  | Number ->
      let f = decimal_at src off len in
      if Float.is_nan f then float_of_string (String.sub src off len) else f
  | Integer -> Int64.to_float (int64_at src off len)
  (* the "%h" spellings [encode] writes for non-finite floats *)
  | String ->
      if key_is src off len "nan" then Float.nan
      else if key_is src off len "-nan" then Float.neg Float.nan
      else if key_is src off len "infinity" then Float.infinity
      else if key_is src off len "-infinity" then Float.neg_infinity
      else raise Not_a_float
  | True | False -> raise Not_a_float
