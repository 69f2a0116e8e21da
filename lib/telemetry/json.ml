type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ printing ------------------------ *)

(* The end of the run of bytes from [i] that a JSON string carries as
   themselves: the first quote, backslash or control byte, or [n]. *)
let rec plain_end s i n =
  if i = n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_end s (i + 1) n

let hex_digit d = "0123456789abcdef".[d]

(* [s] quoted: each run of plain bytes is copied whole, and each other
   byte is replaced by its escape. *)
let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go i =
    let j = plain_end s i n in
    Buffer.add_substring buf s i (j - i);
    if j < n then begin
      (match s.[j] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf (hex_digit (Char.code c lsr 4));
          Buffer.add_char buf (hex_digit (Char.code c land 15)));
      go (j + 1)
    end
  in
  go 0;
  Buffer.add_char buf '"'

(* The C formatter [Printf]'s [%.1f] and [%.17g] end in, without
   interpreting a format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else format_float "%.17g" f

let to_string ?(minify = false) t =
  let buf = Buffer.create 1024 in
  let nl indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            go (indent + 2) x)
          xs;
        nl indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            escape buf k;
            Buffer.add_string buf (if minify then ":" else ": ");
            go (indent + 2) v)
          fields;
        nl indent;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* ------------------------------ parsing ------------------------- *)

exception Parse_error of int * string

(* The first quote or backslash at or after [i] in [s], or [n]. *)
let rec string_end s i n =
  if i = n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> string_end s (i + 1) n

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  (* The escape after a backslash, at [!pos], onto [buf]. *)
  let unescape buf =
    if !pos >= n then fail "unterminated escape";
    match s.[!pos] with
    | '"' -> Buffer.add_char buf '"'; advance ()
    | '\\' -> Buffer.add_char buf '\\'; advance ()
    | '/' -> Buffer.add_char buf '/'; advance ()
    | 'n' -> Buffer.add_char buf '\n'; advance ()
    | 'r' -> Buffer.add_char buf '\r'; advance ()
    | 't' -> Buffer.add_char buf '\t'; advance ()
    | 'b' -> Buffer.add_char buf '\b'; advance ()
    | 'f' -> Buffer.add_char buf '\012'; advance ()
    | 'u' ->
        advance ();
        if !pos + 4 > n then fail "truncated \\u escape";
        let hex = String.sub s !pos 4 in
        let code =
          try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
        in
        pos := !pos + 4;
        (* ASCII only in our own output; encode the rest as UTF-8 *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
    | c -> fail (Printf.sprintf "bad escape \\%c" c)
  in
  (* A string without an escape is one [String.sub]; one with escapes
     is copied a run of plain bytes at a time. *)
  let parse_string () =
    expect '"';
    let stop = string_end s !pos n in
    if stop < n && s.[stop] = '"' then begin
      let v = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      v
    end
    else begin
      let buf = Buffer.create (stop - !pos + 16) in
      let rec go () =
        let stop = string_end s !pos n in
        Buffer.add_substring buf s !pos (stop - !pos);
        pos := stop;
        if !pos >= n then fail "unterminated string";
        advance ();
        if s.[stop] = '\\' then begin
          unescape buf;
          go ()
        end
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail ("bad number " ^ text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail ("bad number " ^ text))
  in
  (* [depth] is bounded, so no input can exhaust the stack *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= 64 -> fail "nesting deeper than 64"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let rec lookup k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else lookup k rest

let member k = function Obj fields -> lookup k fields | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* ------------------------------ codecs -------------------------- *)

module Codec = struct
  type json = t

  (* Decoders raise [Invalid] (a whole message) or [Mismatch w], which a
     field reports as [field "x" must be w]; [decode] catches both. *)
  exception Mismatch of string
  exception Invalid of string

  type 'a t = { enc : 'a -> json; dec : json -> 'a }

  let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

  let scalar what enc read =
    let dec j = match read j with Some v -> v | None -> raise (Mismatch what) in
    { enc; dec }

  let int = scalar "an integer" (fun i -> Int i) to_int
  let str = scalar "a string" (fun s -> Str s) to_str
  let bool = scalar "a boolean" (fun b -> Bool b) (function
      | Bool b -> Some b | _ -> None)
  let marker = scalar "true" (fun () -> Bool true) (function
      | Bool true -> Some () | _ -> None)
  let float = scalar "a number" (fun f -> Float f) (function
      | Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None)
  let list c =
    let item j =
      try c.dec j with Mismatch w -> raise (Mismatch ("a list, each item " ^ w))
    in
    scalar "a list" (fun l -> List (List.map c.enc l)) (fun j ->
        Option.map (List.map item) (to_list j))

  let enum cases =
    let names = List.map (fun (n, _) -> Printf.sprintf "%S" n) cases in
    scalar ("one of " ^ String.concat ", " names)
      (fun v -> Str (fst (List.find (fun (_, v') -> v' = v) cases)))
      (fun j -> Option.bind (to_str j) (fun s -> lookup s cases))

  let conv enc dec c =
    let dec j = Result.fold ~ok:Fun.id ~error:(invalid "%s") (dec (c.dec j)) in
    { enc = (fun v -> c.enc (enc v)); dec }

  type ('o, 'a) field =
    ('o -> (string * json) list -> (string * json) list)
    * ((string * json) list -> 'a)

  let field ?default ?omit name c get =
    ( (fun o acc ->
        let v = get o in
        match omit with
        | Some omit when omit v -> acc
        | _ -> (name, c.enc v) :: acc),
      fun fields ->
        match (lookup name fields, default) with
        | Some j, _ -> (
            try c.dec j with Mismatch w -> invalid "field %S must be %s" name w)
        | None, Some d -> d
        | None, None -> invalid "missing field %S" name )

  let opt name c get =
    let enc = function Some v -> c.enc v | None -> Null in
    field ~default:None ~omit:Option.is_none name
      { enc; dec = (fun j -> Some (c.dec j)) } get

  (* The encoders, last declared first, and the fields' decoder. *)
  type ('o, 'k) obj =
    ('o -> (string * json) list -> (string * json) list) list
    * ((string * json) list -> 'k)

  let obj k = ([], fun _ -> k)
  let ( |+ ) (encs, build) (enc, dec) =
    (enc :: encs, fun fields -> let k = build fields in k (dec fields))
  let fields_of = function Obj f -> f | _ -> raise (Mismatch "an object")

  let seal (encs, build) =
    let enc o = Obj (List.fold_left (fun acc e -> e o acc) [] encs) in
    { enc; dec = (fun j -> build (fields_of j)) }

  let assoc names c =
    let enc l = Obj (List.map (fun (k, v) -> (k, c.enc v)) l) in
    let read fields name = (name, snd (field name c Fun.id) fields) in
    { enc; dec = (fun j -> List.map (read (fields_of j)) names) }

  type 'a case = Case : 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case
  let case c inj proj = Case (c, inj, proj)

  (* A sum: a value's first case encodes it after its [head] field, and
     [pick] chooses the case that decodes a document. *)
  let union heads pick =
    let rec enc v = function
      | [] -> invalid_arg "Json.Codec: a value outside every case"
      | (head, Case (c, _, proj)) :: rest -> (
          match proj v with
          | None -> enc v rest
          | Some b -> ( match c.enc b with Obj f -> Obj (head :: f) | j -> j))
    in
    let dec j = match pick (fields_of j) with Case (c, i, _) -> i (c.dec j) in
    { enc = (fun v -> enc v heads); dec }

  let tagged tag cases =
    let read = snd (field tag str Fun.id) in
    union (List.map (fun (name, case) -> ((tag, Str name), case)) cases)
      (fun fields ->
        let name = read fields in
        match lookup name cases with
        | Some case -> case
        | None -> invalid "unknown %s %S" tag name)

  let keyed flag rows =
    let read = snd (field ~default:false flag bool Fun.id) in
    union (List.map (fun (b, _, case) -> ((flag, Bool b), case)) rows)
      (fun fields ->
        let b = read fields in
        let rows = List.filter (fun (b', _, _) -> b' = b) rows in
        let has (_, key, _) = Option.is_some (lookup key fields) in
        let last = List.hd (List.rev rows) in
        let _, _, c = List.find_opt has rows |> Option.value ~default:last in
        c)

  let encode c v = c.enc v
  let decode c j =
    try Ok (c.dec j) with
    | Invalid m -> Error m
    | Mismatch w -> Error ("document must be " ^ w)
  let to_string c v = to_string ~minify:true (c.enc v)
  let of_string c s = Result.bind (of_string s) (decode c)
end
