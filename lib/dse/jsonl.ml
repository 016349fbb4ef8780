type value = Int of int64 | Float of float | Bool of bool | Str of string

(* --- writing ------------------------------------------------------------ *)

let fnv_prime = 0x100000001b3L

(* Where written text goes: a buffer, or straight into a running FNV-1a
   hash, its 64-bit state held in 8 bytes so that feeding it a byte
   allocates nothing. *)
type sink = To_buffer of Buffer.t | To_hash of Bytes.t

let hash_char h c =
  Bytes.set_int64_ne h 0
    (Int64.mul (Int64.logxor (Bytes.get_int64_ne h 0) (Int64.of_int (Char.code c))) fnv_prime)

let hash_string h s =
  let x = ref (Bytes.get_int64_ne h 0) in
  for i = 0 to String.length s - 1 do
    x := Int64.mul (Int64.logxor !x (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  Bytes.set_int64_ne h 0 !x

(* the buffer's write inlined where it is called *)
let[@inline] add_char sink c =
  match sink with To_buffer b -> Buffer.add_char b c | To_hash h -> hash_char h c

let[@inline] add_string sink s =
  match sink with To_buffer b -> Buffer.add_string b s | To_hash h -> hash_string h s

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* [String.exists needs_escape], without its closure *)
let has_escapes s =
  let i = ref 0 in
  while !i < String.length s && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  !i < String.length s

let add_escaped sink s =
  if not (has_escapes s) then add_string sink s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> add_string sink "\\\""
        | '\\' -> add_string sink "\\\\"
        | '\n' -> add_string sink "\\n"
        | '\r' -> add_string sink "\\r"
        | '\t' -> add_string sink "\\t"
        | c when Char.code c < 0x20 -> add_string sink (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> add_char sink c)
      s

(* the decimal digits of [n <= 0], most significant first: min_int has
   no positive counterpart *)
let rec add_neg_digits sink n =
  if n <= -10 then add_neg_digits sink (n / 10);
  add_char sink (Char.unsafe_chr (48 - (n mod 10)))

let add_int sink n =
  if n < 0 then (
    add_char sink '-';
    add_neg_digits sink n)
  else add_neg_digits sink (-n)

(* What ["%h"] writes for the non-finite floats, and the floats each
   reads back as: NaN (whatever its payload) and the infinities, by
   sign. *)
let non_finite_text = [| "nan"; "-nan"; "infinity"; "-infinity" |]
let non_finite = [| Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity |]

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

(* What [Printf.sprintf "%h" f] writes, without the format machinery:
   ["0x1.f4p+8"], ["-0x0p+0"], ["0x0.0000000000001p-1022"]. *)
let add_hex_float sink f =
  if not (Float.is_finite f) then
    add_string sink
      non_finite_text.((if Float.is_nan f then 0 else 2) + Bool.to_int (Float.sign_bit f))
  else begin
    let bits = Int64.bits_of_float f in
    if bits < 0L then add_char sink '-';
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let mant = Int64.to_int bits land 0xf_ffff_ffff_ffff in
    add_string sink (if biased = 0 then "0x0" else "0x1");
    if mant <> 0 then begin
      add_char sink '.';
      let rest = ref mant and shift = ref 48 in
      while !rest <> 0 do
        add_char sink (hex_digit ((!rest lsr !shift) land 0xf));
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    let exp = if biased = 0 then if mant = 0 then 0 else -1022 else biased - 1023 in
    add_string sink (if exp < 0 then "p" else "p+");
    add_int sink exp
  end

let add_value sink = function
  | Int i ->
      let n = Int64.to_int i in
      if Int64.of_int n = i then add_int sink n else add_string sink (Int64.to_string i)
  | Float f ->
      add_char sink '"';
      add_hex_float sink f;
      add_char sink '"'
  | Bool v -> add_string sink (if v then "true" else "false")
  | Str s ->
      add_char sink '"';
      add_escaped sink s;
      add_char sink '"'

let add_key sink ~first k =
  add_string sink (if first then "{\"" else ",\"");
  add_escaped sink k;
  add_string sink "\":"

let add_member sink ~first k v =
  add_key sink ~first k;
  add_value sink v

let encode fields =
  let b = Buffer.create 256 in
  let sink = To_buffer b in
  (match fields with
  | [] -> add_char sink '{'
  | (k, v) :: rest ->
      add_member sink ~first:true k v;
      List.iter (fun (k, v) -> add_member sink ~first:false k v) rest);
  Buffer.add_char b '}';
  Buffer.contents b

(* --- reading ------------------------------------------------------------ *)

type kind = Integer | True | False | String

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

(* the [len] bytes of [line] from [start] are an integer as [add_int]
   writes it: an optional '-', then 0 or digits without a leading 0, and
   not "-0" *)
let is_integer line start len =
  let stop = start + len in
  let first = if start < stop && line.[start] = '-' then start + 1 else start in
  let j = ref first in
  while !j < stop && is_digit (String.unsafe_get line !j) do
    incr j
  done;
  !j = stop && first < stop && (line.[first] <> '0' || (stop = first + 1 && first = start))

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

(* each byte's value as a lowercase hex digit, else 16 *)
let hex_values =
  String.init 256 (fun i ->
      Char.unsafe_chr
        (match Char.unsafe_chr i with '0' .. '9' -> i - 48 | 'a' .. 'f' -> i - 87 | _ -> 16))

let[@inline] hex_value c = Char.code (String.unsafe_get hex_values (Char.code c))

(* The cursor: the line (the bytes of [line] from [base] up to [stop]),
   the offset it has reached, whether the object is open, and the last
   value read: the [len] bytes of [src] from [off], a token of [kind].
   [src] is the line unless the string value had escapes. *)
type cursor = {
  line : string;
  base : int;
  stop : int;
  mutable pos : int;
  mutable opened : bool;
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
    kind = True;
    src = line;
    off = 0;
    len = 0;
    int = 0;
  }

let cursor line = cursor_sub line 0 (String.length line)
let offset sc = sc.pos - sc.base
let fail sc msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg (offset sc)))

(* The rest of a string that has escapes, unescaped into [b]: only the
   escapes [add_escaped] writes, so a string has one spelling. *)
let rec escaped sc b =
  let line = sc.line and n = sc.stop in
  if sc.pos >= n then fail sc "unterminated string"
  else
    match line.[sc.pos] with
    | '"' -> sc.pos <- sc.pos + 1
    | '\\' ->
        sc.pos <- sc.pos + 1;
        let add c =
          Buffer.add_char b c;
          sc.pos <- sc.pos + 1
        in
        (match byte line n sc.pos with
        | '"' -> add '"'
        | '\\' -> add '\\'
        | 'n' -> add '\n'
        | 'r' -> add '\r'
        | 't' -> add '\t'
        | 'u' ->
            if sc.pos + 4 >= n then fail sc "truncated \\u escape";
            (* "\u00" and two lowercase hex digits: a control character
               that has no short escape *)
            let hi = hex_value line.[sc.pos + 3] and lo = hex_value line.[sc.pos + 4] in
            let code = (hi * 16) + lo in
            if
              line.[sc.pos + 1] <> '0'
              || line.[sc.pos + 2] <> '0'
              || hi > 1 || lo > 15 || code = 0x0a || code = 0x0d || code = 0x09
            then fail sc "bad \\u escape";
            Buffer.add_char b (Char.chr code);
            sc.pos <- sc.pos + 5
        | _ when sc.pos >= n -> fail sc "unterminated escape"
        | c -> fail sc (Printf.sprintf "bad escape '\\%c'" c));
        escaped sc b
    | c when c < ' ' -> fail sc "unescaped control character"
    | c ->
        Buffer.add_char b c;
        sc.pos <- sc.pos + 1;
        escaped sc b

(* The end of the plain bytes of a string from [j] on: its closing
   quote, a backslash, a control character or the end of the line.
   Eight bytes at a time while none of them is one: a word [x] holds a
   byte below [k] exactly when [(x - k * 0x01..01) land (lnot x) land
   0x80..80] is not zero ([k] at most 0x80), and [x lxor 0x22..22] has
   a zero byte where [x] has a quote ([0x5c]: a backslash). *)
let plain_end line n j =
  let j = ref j in
  while
    !j + 8 <= n
    &&
    let x = String.get_int64_le line !j in
    let q = Int64.logxor x 0x2222222222222222L and b = Int64.logxor x 0x5c5c5c5c5c5c5c5cL in
    Int64.logand
      (Int64.logor
         (Int64.logor
            (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
            (Int64.logand (Int64.sub b 0x0101010101010101L) (Int64.lognot b)))
         (Int64.logand (Int64.sub x 0x2020202020202020L) (Int64.lognot x)))
      0x8080808080808080L
    = 0L
  do
    j := !j + 8
  done;
  while
    !j < n
    &&
    let c = String.unsafe_get line !j in
    c <> '"' && c <> '\\' && c >= ' '
  do
    incr j
  done;
  !j

(* [sc.src] is the line again; a physical test first spares the write
   barrier on the common path *)
let[@inline] from_line sc = if sc.src != sc.line then sc.src <- sc.line

let value sc =
  let line = sc.line and n = sc.stop and p = sc.pos in
  if byte line n p = '"' then begin
    let q = plain_end line n (p + 1) in
    if q < n && String.unsafe_get line q = '"' then begin
      from_line sc;
      sc.off <- p + 1;
      sc.len <- q - p - 1;
      sc.pos <- q + 1
    end
    else begin
      sc.pos <- q;
      let b = Buffer.create (2 * (q - p) + 16) in
      Buffer.add_substring b line (p + 1) (q - p - 1);
      escaped sc b;
      let s = Buffer.contents b in
      sc.src <- s;
      sc.off <- 0;
      sc.len <- String.length s
    end;
    sc.kind <- String
  end
  else begin
    (* any other value runs up to the ',' or '}' after it *)
    let j = ref p in
    while !j < n && match String.unsafe_get line !j with ',' | '}' -> false | _ -> true do
      incr j
    done;
    let stop = !j in
    from_line sc;
    sc.off <- p;
    sc.len <- stop - p;
    sc.pos <- stop;
    if is_integer line p (stop - p) then
      if fits_int64 line p stop then sc.kind <- Integer else fail sc "integer out of range"
    else if key_is line p (stop - p) "true" then sc.kind <- True
    else if key_is line p (stop - p) "false" then sc.kind <- False
    else fail sc (Printf.sprintf "bad value %S" (String.sub line p (stop - p)))
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
  && (not (neg && !acc = 0))
  && begin
       sc.pos <- !j;
       sc.int <- (if neg then - !acc else !acc);
       true
     end

let close sc =
  if not (sc.pos < sc.stop && String.unsafe_get sc.line sc.pos = '}') then fail sc "expected '}'";
  sc.pos <- sc.pos + 1;
  if sc.pos <> sc.stop then fail sc "trailing bytes"

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

(* --- floats ---------------------------------------------------------------- *)

exception Not_a_float

(* The one spelling [add_hex_float] writes for a float, checked against
   the bytes as they are read: the sign, ["0x0"] or ["0x1"], one to
   thirteen lowercase digits after a ['.'], the last not a zero, and
   ['p'], a sign and the exponent in plain decimal. *)
let hex_float_at s off len =
  let stop = off + len in
  let neg = byte s stop off = '-' in
  let i = if neg then off + 1 else off in
  if byte s stop i <> '0' then begin
    let k = ref 0 in
    while !k < Array.length non_finite_text && not (key_is s off len non_finite_text.(!k)) do
      incr k
    done;
    if !k = Array.length non_finite_text then raise Not_a_float else non_finite.(!k)
  end
  else begin
    let lead = byte s stop (i + 2) in
    if byte s stop (i + 1) <> 'x' || (lead <> '0' && lead <> '1') then raise Not_a_float;
    let i = ref (i + 3) and mant = ref 0 in
    if byte s stop !i = '.' then begin
      let first = !i + 1 in
      i := first;
      while hex_value (byte s stop !i) < 16 do
        mant := (!mant lsl 4) lor hex_value (byte s stop !i);
        incr i
      done;
      let digits = !i - first in
      if digits = 0 || digits > 13 || byte s stop (!i - 1) = '0' then raise Not_a_float;
      mant := !mant lsl (4 * (13 - digits))
    end;
    let sign = byte s stop (!i + 1) in
    if byte s stop !i <> 'p' || (sign <> '+' && sign <> '-') then raise Not_a_float;
    let first = !i + 2 in
    let j = ref first and e = ref 0 in
    while !j - first < 5 && is_digit (byte s stop !j) do
      e := (!e * 10) + Char.code (String.unsafe_get s !j) - 48;
      incr j
    done;
    (* no leading zero, and a negative exponent is never 0 *)
    if
      !j <> stop || !j = first
      || (String.unsafe_get s first = '0' && (!j > first + 1 || sign = '-'))
    then raise Not_a_float;
    let e = if sign = '-' then - !e else !e in
    let biased =
      if lead = '1' then if e < -1022 || e > 1023 then raise Not_a_float else e + 1023
      else if e <> (if !mant = 0 then 0 else -1022) then raise Not_a_float
      else 0
    in
    let bits = Int64.logor (Int64.shift_left (Int64.of_int biased) 52) (Int64.of_int !mant) in
    Int64.float_of_bits (if neg then Int64.logor bits Int64.min_int else bits)
  end
