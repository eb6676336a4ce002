(* Recursive-descent JSON reader.  Totality strategy: one internal [Fail]
   exception caught at the single entry point, an explicit depth counter
   against stack exhaustion, and index arithmetic only through [peek]/
   [advance] so out-of-bounds reads become parse errors instead of
   [Invalid_argument]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

type state = { src : string; len : int; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))

(* One preallocated [Some c] per byte value: [peek] hands these out
   instead of boxing a fresh option for every byte it looks at.  The
   lexer's primitives are inlined: they run once or more per byte. *)
let some_char = Array.init 256 (fun i -> Some (Char.chr i))

let peek st =
  if st.pos < st.len then some_char.(Char.code st.src.[st.pos]) else None
  [@@zero_alloc_check] [@@inline]

let advance st = st.pos <- st.pos + 1 [@@inline]

let expect_failed st c =
  match peek st with
  | Some d -> fail st (Printf.sprintf "expected '%c', found '%c'" c d)
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let expect st c =
  if st.pos < st.len && Char.equal st.src.[st.pos] c then advance st else expect_failed st c
  [@@inline]

let is_ws st = match peek st with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false
  [@@inline]

let rec skip_ws_run st =
  advance st;
  if is_ws st then skip_ws_run st
  [@@zero_alloc_check]

let skip_ws st = if is_ws st then skip_ws_run st [@@zero_alloc_check] [@@inline]

let is_digit c = c >= '0' && c <= '9' [@@inline]

(* literal [true] / [false] / [null] *)
let expect_word st w v =
  for i = 0 to String.length w - 1 do
    expect st w.[i]
  done;
  v

let hex_digit st =
  match peek st with
  | Some c when is_digit c -> advance st; Char.code c - Char.code '0'
  | Some c when c >= 'a' && c <= 'f' -> advance st; Char.code c - Char.code 'a' + 10
  | Some c when c >= 'A' && c <= 'F' -> advance st; Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad \\u escape"

let hex4 st =
  let a = hex_digit st in
  let b = hex_digit st in
  let c = hex_digit st in
  let d = hex_digit st in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* Byte-by-byte string body, from just after the opening quote. *)
let parse_string_escaped st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st; Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 st in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: a low surrogate must follow *)
            expect st '\\';
            expect st 'u';
            let lo = hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate"
            else
              add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
          else add_utf8 buf cp
        | _ -> fail st "bad escape character"));
      go ()
    | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ()

let rec plain_run_end st i =
  if i < st.len && match st.src.[i] with '"' | '\\' -> false | c -> Char.code c >= 0x20
  then plain_run_end st (i + 1)
  else i

(* Fast path: a run of plain bytes up to the closing quote is one
   [String.sub].  The scan does not move [st.pos], so on an escape, a
   control byte or the end of input [parse_string_escaped] reads the
   string from just after the opening quote, with the same values and
   the same error positions as it always had. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = plain_run_end st start in
  if stop < st.len && Char.equal st.src.[stop] '"' then begin
    st.pos <- stop + 1;
    String.sub st.src start (stop - start)
  end
  else parse_string_escaped st

let rec digits_end st i = if i < st.len && is_digit st.src.[i] then digits_end st (i + 1) else i

(* the value of the ASCII digits [src.[i .. j-1]] *)
let rec int_value src i j acc =
  if i >= j then acc else int_value src (i + 1) j ((10 * acc) + Char.code src.[i] - Char.code '0')

(* JSON number grammar: -? int frac? exp?; the scan enforces the grammar
   shape (so "-", "01", "1." and "0x1" all fail) and [float_of_string]
   does the value conversion.  Overflow to [infinity] is preserved.  A
   plain integer of at most 15 digits is exact in a double, so it is
   converted here, without the substring: the same value, -0 included. *)
let parse_number st =
  let start = st.pos in
  let neg = match peek st with Some '-' -> advance st; true | _ -> false in
  let int_start = st.pos in
  (match peek st with
  | Some '0' -> advance st
  | Some c when is_digit c -> st.pos <- digits_end st st.pos
  | _ -> fail st "malformed number");
  let int_end = st.pos in
  (match peek st with
  | Some '.' ->
    advance st;
    (match peek st with
    | Some c when is_digit c -> ()
    | _ -> fail st "malformed number: no digits after '.'");
    st.pos <- digits_end st st.pos
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    (match peek st with
    | Some c when is_digit c -> ()
    | _ -> fail st "malformed number: empty exponent");
    st.pos <- digits_end st st.pos
  | _ -> ());
  if st.pos = int_end && int_end - int_start <= 15 then begin
    let v = float_of_int (int_value st.src int_start int_end 0) in
    if neg then -.v else v
  end
  else
    let text = String.sub st.src start (st.pos - start) in
    match float_of_string_opt text with
    | Some v -> v
    | None -> fail st "malformed number"

let rec parse_value st depth =
  if depth <= 0 then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    advance st;
    skip_ws st;
    (match peek st with
    | Some ']' -> advance st; Arr []
    | _ ->
      let rec items acc =
        let v = parse_value st (depth - 1) in
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; items (v :: acc)
        | Some ']' -> advance st; Arr (List.rev (v :: acc))
        | _ -> fail st "expected ',' or ']'"
      in
      items [])
  | Some '{' ->
    advance st;
    skip_ws st;
    (match peek st with
    | Some '}' -> advance st; Obj []
    | _ ->
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth - 1) in
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; fields ((k, v) :: acc)
        | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
        | _ -> fail st "expected ',' or '}'"
      in
      fields [])
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let finish st v =
  skip_ws st;
  if st.pos <> st.len then Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
  else Ok v

let default_max_depth = 64

let parse ?(max_depth = default_max_depth) src =
  let st = { src; len = String.length src; pos = 0 } in
  match parse_value st max_depth with
  | v -> finish st v
  | exception Fail msg -> Error msg

(* A key set, its indices bucketed by key length: a key is compared
   only with the names of its own length. *)
type keys = { names : string array; by_len : int array array }

let keys names =
  let longest = Array.fold_left (fun m k -> Int.max m (String.length k)) 0 names in
  let with_len n =
    Array.of_list
      (List.filter (fun i -> String.length names.(i) = n) (List.init (Array.length names) Fun.id))
  in
  { names; by_len = Array.init (longest + 1) with_len }

(* [src.[start .. start+n-1]] equals [name], compared in place *)
let rec same_bytes src start name i n =
  i >= n || (Char.equal src.[start + i] name.[i] && same_bytes src start name (i + 1) n)

let rec first_match names cands src start n j =
  if j >= Array.length cands then -1
  else if same_bytes src start names.(cands.(j)) 0 n then cands.(j)
  else first_match names cands src start n (j + 1)

(* the first index whose name is [src.[start .. start+n-1]], or -1 *)
let index_of ks src start n =
  if n >= Array.length ks.by_len then -1 else first_match ks.names ks.by_len.(n) src start n 0

(* An object key, read as [parse_string] reads it and looked up in the
   key set: a plain key is compared where it lies, an escaped one is
   decoded first. *)
let key_index st ks =
  expect st '"';
  let start = st.pos in
  let stop = plain_run_end st start in
  if stop < st.len && Char.equal st.src.[stop] '"' then begin
    st.pos <- stop + 1;
    index_of ks st.src start (stop - start)
  end
  else
    let k = parse_string_escaped st in
    index_of ks k 0 (String.length k)

(* The members of the top-level object of [parse_value], from the first
   key on: each value is kept in its key's slot (the first binding only)
   or read and dropped. *)
let rec members st depth ks slots =
  skip_ws st;
  let i = key_index st ks in
  skip_ws st;
  expect st ':';
  let v = parse_value st (depth - 1) in
  if i >= 0 && Option.is_none slots.(i) then slots.(i) <- Some v;
  skip_ws st;
  match peek st with
  | Some ',' -> advance st; members st depth ks slots
  | Some '}' -> advance st
  | _ -> fail st "expected ',' or '}'"

let fields ks src =
  let st = { src; len = String.length src; pos = 0 } in
  let slots = Array.make (Array.length ks.names) None in
  let max_depth = default_max_depth in
  match
    skip_ws st;
    match peek st with
    | Some '{' -> (
      advance st;
      skip_ws st;
      match peek st with
      | Some '}' -> advance st
      | _ -> members st max_depth ks slots)
    | _ -> ignore (parse_value st max_depth)
  with
  | () -> finish st slots
  | exception Fail msg -> Error msg

let rec assoc_first key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc_first key rest

let member key = function Obj fields -> assoc_first key fields | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"
