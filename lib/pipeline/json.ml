type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let rec emit buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep_open l r items emit_item =
    match items with
    | [] -> Buffer.add_string buf (l ^ r)
    | _ ->
        Buffer.add_string buf l;
        if indent then Buffer.add_char buf '\n';
        List.iteri
          (fun k item ->
            if k > 0 then begin
              Buffer.add_char buf ',';
              if indent then Buffer.add_char buf '\n'
            end;
            pad (level + 1);
            emit_item item)
          items;
        if indent then begin
          Buffer.add_char buf '\n';
          pad level
        end;
        Buffer.add_string buf r
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_str f)
      else Buffer.add_string buf "null"
  | Str s -> escape buf s
  | List items ->
      sep_open "[" "]" items (fun item ->
          emit buf ~indent ~level:(level + 1) item)
  | Obj fields ->
      sep_open "{" "}" fields (fun (k, item) ->
          escape buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          emit buf ~indent ~level:(level + 1) item)

let render ~indent v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

(* ---- parsing --------------------------------------------------------- *)

exception Parse_error of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (msg, !pos)) in
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
    | Some d -> error (Printf.sprintf "expected %c, found %c" c d)
    | None -> error (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error ("invalid literal, expected " ^ word)
  in
  (* Exactly four hex digits: [int_of_string] alone would raise Failure
     on "ZZZZ" and accept "1_2_". *)
  let hex4 () =
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error "\\u escape needs four hex digits"
    in
    if !pos + 4 > n then error "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      v := (!v * 16) + digit s.[!pos];
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' -> (
               match Uchar.of_int (hex4 ()) with
               | u -> Buffer.add_utf_8_uchar buf u
               | exception Invalid_argument _ ->
                   (* surrogate halves etc. — emit the replacement char *)
                   Buffer.add_utf_8_uchar buf Uchar.rep)
           | c -> error (Printf.sprintf "invalid escape \\%c" c));
          go ()
      | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digit_run () =
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done
    in
    digit_run ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digit_run ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digit_run ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error ("invalid number " ^ text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* out of int range: keep the value, as a float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error ("invalid number " ^ text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> error "expected , or ] in array"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> error "expected , or } in object"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) ->
      Error (Printf.sprintf "at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
