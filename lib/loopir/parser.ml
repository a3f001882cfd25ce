open Ast

exception Error of string * int

type state = { mutable toks : (Lexer.token * int) list }

let peek st =
  match st.toks with [] -> (Lexer.EOF, 0) | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok what =
  let t, line = peek st in
  if t = tok then advance st
  else
    raise
      (Error
         (Printf.sprintf "expected %s but found %s" what (Lexer.pp_token t), line))

let rec parse_expr_prec st = parse_additive st

and parse_additive st =
  let lhs = parse_term st in
  let rec go lhs =
    match peek st with
    | Lexer.PLUS, _ ->
        advance st;
        go (Bin (Add, lhs, parse_term st))
    | Lexer.MINUS, _ ->
        advance st;
        go (Bin (Sub, lhs, parse_term st))
    | _ -> lhs
  in
  go lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec go lhs =
    match peek st with
    | Lexer.STAR, _ ->
        advance st;
        go (Bin (Mul, lhs, parse_factor st))
    | Lexer.SLASH, _ ->
        advance st;
        go (Bin (Div, lhs, parse_factor st))
    | _ -> lhs
  in
  go lhs

and parse_factor st =
  let base = parse_atom st in
  match peek st with
  | Lexer.POW, line -> (
      advance st;
      match peek st with
      | Lexer.INT k, _ ->
          advance st;
          Pow (base, k)
      | t, _ ->
          raise
            (Error
               ( Printf.sprintf "expected integer exponent, found %s"
                   (Lexer.pp_token t),
                 line )))
  | _ -> base

and parse_args st =
  let rec go acc =
    let e = parse_expr_prec st in
    match peek st with
    | Lexer.COMMA, _ ->
        advance st;
        go (e :: acc)
    | _ -> List.rev (e :: acc)
  in
  let args = go [] in
  expect st Lexer.RPAREN ")";
  args

and parse_atom st =
  let t, line = peek st in
  match t with
  | Lexer.INT k ->
      advance st;
      Int k
  | Lexer.REAL r ->
      advance st;
      Real r
  | Lexer.MINUS ->
      advance st;
      Un (Neg, parse_atom st)
  | Lexer.PLUS ->
      advance st;
      parse_atom st
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr_prec st in
      expect st Lexer.RPAREN ")";
      e
  | Lexer.KMIN ->
      advance st;
      expect st Lexer.LPAREN "(";
      Min (parse_args st)
  | Lexer.KMAX ->
      advance st;
      expect st Lexer.LPAREN "(";
      Max (parse_args st)
  | Lexer.KSQRT ->
      advance st;
      expect st Lexer.LPAREN "(";
      let args = parse_args st in
      (match args with
      | [ e ] -> Un (Sqrt, e)
      | _ -> raise (Error ("SQRT takes one argument", line)))
  | Lexer.KABS ->
      advance st;
      expect st Lexer.LPAREN "(";
      let args = parse_args st in
      (match args with
      | [ e ] -> Un (Abs, e)
      | _ -> raise (Error ("ABS takes one argument", line)))
  | Lexer.KMOD ->
      advance st;
      expect st Lexer.LPAREN "(";
      let args = parse_args st in
      (match args with
      | [ a; b ] -> Mod (a, b)
      | _ -> raise (Error ("MOD takes two arguments", line)))
  | Lexer.IDENT name -> (
      advance st;
      match peek st with
      | Lexer.LPAREN, _ ->
          advance st;
          Ref (name, parse_args st)
      | _ -> Var name)
  | t ->
      raise
        (Error
           (Printf.sprintf "unexpected token %s in expression" (Lexer.pp_token t), line))

let rec parse_stmts st ~enclosing acc =
  match peek st with
  | Lexer.KDO, _ ->
      advance st;
      let index =
        match peek st with
        | Lexer.IDENT v, line ->
            if List.mem v enclosing then
              raise
                (Error
                   ( Printf.sprintf
                       "loop index %s reuses the index of an enclosing loop" v,
                     line ));
            advance st;
            v
        | t, line ->
            raise
              (Error
                 ( Printf.sprintf "expected loop index, found %s"
                     (Lexer.pp_token t),
                   line ))
      in
      expect st Lexer.EQUALS "=";
      let lo = parse_expr_prec st in
      expect st Lexer.COMMA ",";
      let hi = parse_expr_prec st in
      let step =
        match peek st with
        | Lexer.COMMA, line -> (
            advance st;
            let neg =
              match peek st with
              | Lexer.MINUS, _ ->
                  advance st;
                  true
              | _ -> false
            in
            match peek st with
            | Lexer.INT k, _ ->
                advance st;
                if k = 0 then raise (Error ("zero loop step", line));
                if neg then -k else k
            | t, line ->
                raise
                  (Error
                     ( Printf.sprintf "expected integer step, found %s"
                         (Lexer.pp_token t),
                       line )))
        | _ -> 1
      in
      let body = parse_stmts st ~enclosing:(index :: enclosing) [] in
      expect st Lexer.KENDDO "ENDDO";
      parse_stmts st ~enclosing (Loop { index; lo; hi; step; body } :: acc)
  | Lexer.IDENT name, line ->
      advance st;
      (match peek st with
      | Lexer.LPAREN, _ ->
          advance st;
          let subs = parse_args st in
          expect st Lexer.EQUALS "=";
          let rhs = parse_expr_prec st in
          parse_stmts st ~enclosing (Assign ((name, subs), rhs) :: acc)
      | t, _ ->
          raise
            (Error
               ( Printf.sprintf
                   "expected '(' after identifier %s (only array assignments \
                    are statements), found %s"
                   name (Lexer.pp_token t),
                 line )))
  | _ -> List.rev acc

let parse ~name src =
  let st = { toks = Lexer.tokenize src } in
  let body = parse_stmts st ~enclosing:[] [] in
  (match peek st with
  | Lexer.EOF, _ -> ()
  | t, line ->
      raise
        (Error (Printf.sprintf "trailing input: %s" (Lexer.pp_token t), line)));
  Ast.program ~name body

let parse_expr src =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr_prec st in
  (match peek st with
  | Lexer.EOF, _ -> ()
  | t, line ->
      raise
        (Error (Printf.sprintf "trailing input: %s" (Lexer.pp_token t), line)));
  e
