type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoder *)

(* Every renderer writes to a caller-owned [Buffer.t] or bytes; the
   module keeps no buffer or other state of its own, so encoders on
   different domains share nothing. *)

(* The primitive behind Printf's %g conversion. *)
external format_float : string -> float -> string = "caml_format_float"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Runs of bytes with nothing to escape are appended whole, so a plain
   key or label costs one blit. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !run (i - !run);
      add_escape buf c;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

(* Numbers are written straight into bytes at a position, which the
   caller has made [number_bytes] long: one capacity check per number
   (or per line, for a renderer that sizes its own line), no call per
   digit. The [Buffer] renderers write into a fresh scratch of that
   size — a few words of minor heap, never shared — and blit it once. *)
let number_bytes = 40

let[@inline] put b i c = Bytes.unsafe_set b i (Char.unsafe_chr c)

(* The number of digits of [n <= 0]. *)
let neg_width n =
  let w = ref 1 and p = ref (-10) in
  while !w < 19 && n <= !p do
    incr w;
    if !w < 19 then p := !p * 10
  done;
  !w

(* The digits of [n <= 0], without a sign, ending just before [stop].
   Counting on the negative side reaches [min_int]. *)
let put_neg_digits b stop n =
  let n = ref n and i = ref (stop - 1) in
  while !n <= -10 do
    let q = !n / 10 in
    put b !i (48 + ((q * 10) - !n));
    n := q;
    decr i
  done;
  put b !i (48 - !n)

(* The digits of [-n], after a '-' when [neg]; the position after. *)
let put_signed b pos ~neg n =
  if neg then put b pos 45 (* '-' *);
  let stop = pos + Bool.to_int neg + neg_width n in
  put_neg_digits b stop n;
  stop

let put_int b pos n = put_signed b pos ~neg:(n < 0) (if n < 0 then n else -n)

(* Fixed notation as "%g" prints it: [q], a '.', and the [w]-digit
   fraction [r] with its trailing zeros dropped, but one "0" kept when
   nothing else is left. *)
let put_fixed b pos ~neg q r w =
  let r = ref r and w = ref w in
  if !r = 0 then w := 1
  else
    while !r mod 10 = 0 do
      r := !r / 10;
      decr w
    done;
  let dot = put_signed b pos ~neg (-q) in
  put b dot 46 (* '.' *);
  for i = dot + !w downto dot + 1 do
    put b i (48 + (!r mod 10));
    r := !r / 10
  done;
  dot + !w + 1

(* The number contract: "%.12g" when that reads back as the same float,
   else "%.17g"; ".0" appended when neither a '.' nor an exponent shows,
   so the parser reads a Float back. *)
let put_float_printf b pos f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite float";
  let s = format_float "%.12g" f in
  let s = if float_of_string s = f then s else format_float "%.17g" f in
  let n = String.length s in
  Bytes.blit_string s 0 b pos n;
  if String.contains s '.' || String.contains s 'e' then pos + n
  else begin
    Bytes.blit_string ".0" 0 b (pos + n) 2;
    pos + n + 2
  end

(* The same contract without printf for |f| in [1e-4, 1e11), where "%g"
   prints fixed notation. With [e] the decimal exponent of |f| and
   p = 10^(11-e), the 12-digit integer m = round (|f| * p) is "%.12g"'s
   digit string whenever m / p rounds back to |f|: that quotient is one
   correctly rounded IEEE division of exact operands, the rounding strtod
   applies to the printed decimal, and a double carries more than 15
   digits, so no other 12-digit decimal can round to |f|. The search for
   [e] rounds its products; a wrong [e] fails the range check on m and
   the float takes the printf path. *)
let put_float_digits b pos f a =
  (* [w] = 11 - e fraction digits, p = 10^w *)
  let p = ref 1_000_000_000_000_000 and w = ref 15 in
  while !w > 1 && a *. Float.of_int !p >= 1e12 do
    p := !p / 10;
    decr w
  done;
  let p = !p in
  let m = Float.to_int ((a *. Float.of_int p) +. 0.5) in
  if
    m >= 100_000_000_000
    && m < 1_000_000_000_000
    && Float.of_int m /. Float.of_int p = a
  then put_fixed b pos ~neg:(f < 0.) (m / p) (m mod p) !w
  else put_float_printf b pos f

(* Every simulation timestamp is a whole number of nanoseconds, k / 1e9,
   and one below 1000 s takes a shorter path to the same string. With
   |f| in [1e-4, 1e3) and k = round (|f| * 1e9) < 10^12, the decimal
   k * 10^-9 has at most 12 significant digits, all at or above the
   12th digit of |f|; when k / 1e9 rounds back to |f| it lies within
   half an ulp of |f|, far inside half a unit of that 12th digit, so it
   is "%.12g"'s string, and it reads back as |f|. The divisions by the
   constant 10^9 compile to multiplications. *)
let put_float b pos f =
  let a = Float.abs f in
  if a >= 1e-4 && a < 1e3 then begin
    let k = Float.to_int ((a *. 1e9) +. 0.5) in
    if Float.of_int k /. 1e9 = a then
      put_fixed b pos ~neg:(f < 0.) (k / 1_000_000_000) (k mod 1_000_000_000) 9
    else put_float_digits b pos f a
  end
  else if a >= 1e-4 && a < 1e11 then put_float_digits b pos f a
  else put_float_printf b pos f

let add_int buf n =
  let b = Bytes.create number_bytes in
  Buffer.add_subbytes buf b 0 (put_int b 0 n)

let add_float buf f =
  let b = Bytes.create number_bytes in
  Buffer.add_subbytes buf b 0 (put_float b 0 f)

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape_into buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          encode buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          encode buf v)
        fields;
      Buffer.add_char buf '}'

let render add x =
  let buf = Buffer.create 256 in
  add buf x;
  Buffer.contents buf

let to_string v = render encode v

let line_writer oc =
  let buf = Buffer.create 256 in
  fun v ->
    Buffer.clear buf;
    encode buf v;
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.pp_print_string ppf (render add_float f)
  | String s -> Format.pp_print_string ppf (render escape_into s)
  | List xs ->
      Format.fprintf ppf "[@[<v>%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
        xs
  | Obj fields ->
      let field ppf (k, v) =
        Format.fprintf ppf "%s: %a" (render escape_into k) pp v
      in
      Format.fprintf ppf "{@[<v>%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") field)
        fields

(* ------------------------------------------------------------------ *)
(* Parser *)

exception Parse_error of int * string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (st.pos, msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> error st (Printf.sprintf "expected %c, found %c" c got)
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else error st ("invalid literal, expected " ^ word)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> begin
        advance st;
        match peek st with
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance st;
            go ()
        | Some 'r' ->
            Buffer.add_char buf '\r';
            advance st;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance st;
            go ()
        | Some '"' ->
            Buffer.add_char buf '"';
            advance st;
            go ()
        | Some '\\' ->
            Buffer.add_char buf '\\';
            advance st;
            go ()
        | Some '/' ->
            Buffer.add_char buf '/';
            advance st;
            go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then error st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> error st "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else error st "\\u escape above 0x7f unsupported";
            go ()
        | _ -> error st "bad escape"
      end
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_number_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  let is_float =
    String.contains text '.' || String.contains text 'e' || String.contains text 'E'
  in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st ("bad number " ^ text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> error st ("bad number " ^ text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some '[' -> begin
      advance st;
      skip_ws st;
      match peek st with
      | Some ']' ->
          advance st;
          List []
      | _ ->
          let rec elems acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                elems (v :: acc)
            | Some ']' ->
                advance st;
                List (List.rev (v :: acc))
            | _ -> error st "expected , or ]"
          in
          elems []
    end
  | Some '{' -> begin
      advance st;
      skip_ws st;
      match peek st with
      | Some '}' ->
          advance st;
          Obj []
      | _ ->
          let rec fields acc =
            skip_ws st;
            expect st '"';
            let key = parse_string_body st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                fields ((key, v) :: acc)
            | Some '}' ->
                advance st;
                Obj (List.rev ((key, v) :: acc))
            | _ -> error st "expected , or }"
          in
          fields []
    end
  | Some _ -> parse_number st

let parse src =
  let st = { src; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then error st "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "at offset %d: %s" pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null | Bool _ | String _ | List _ | Obj _ -> None
