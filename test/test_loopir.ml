(* Tests for the mini-Fortran IR: lexer, parser, pretty round-trips, affine
   extraction, normalization, and the statement table. *)

open Loopir

let parse_e = Parser.parse_expr
let pp_e = Pretty.expr_to_string

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "DO i = 1, 20" |> List.map fst in
  Alcotest.(check (list string))
    "tokens"
    [ "DO"; "i"; "="; "1"; ","; "20"; "<eof>" ]
    (List.map Lexer.pp_token toks)

let test_lexer_operators () =
  let toks = Lexer.tokenize "a(i)**2 - b/c" |> List.map fst in
  Alcotest.(check (list string))
    "tokens"
    [ "a"; "("; "i"; ")"; "**"; "2"; "-"; "b"; "/"; "c"; "<eof>" ]
    (List.map Lexer.pp_token toks)

let test_lexer_comments_and_case () =
  let toks =
    Lexer.tokenize "! a comment line\nEndDo MIN ! trailing\n" |> List.map fst
  in
  Alcotest.(check (list string))
    "tokens" [ "ENDDO"; "MIN"; "<eof>" ]
    (List.map Lexer.pp_token toks)

let test_lexer_reals () =
  match Lexer.tokenize "0.5 + 2" |> List.map fst with
  | [ Lexer.REAL r; Lexer.PLUS; Lexer.INT 2; Lexer.EOF ] ->
      Alcotest.(check (float 1e-9)) "real" 0.5 r
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_error () =
  match Lexer.tokenize "a ? b" with
  | exception Lexer.Error (_, 1) -> ()
  | _ -> Alcotest.fail "expected lexer error"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

let test_parse_expr_precedence () =
  Alcotest.(check string) "mul binds" "1 + 2*i" (pp_e (parse_e "1 + 2 * i"));
  Alcotest.(check string)
    "paren kept" "(1 + i)*2"
    (pp_e (parse_e "(1 + i) * 2"));
  Alcotest.(check string) "assoc" "i - j - k" (pp_e (parse_e "i - j - k"));
  (* left associativity: (i-j)-k evaluates correctly *)
  Alcotest.(check string) "pow" "i**2" (pp_e (parse_e "i ** 2"));
  Alcotest.(check string) "min" "MIN(i, j + 1)" (pp_e (parse_e "min(i, j+1)"))

let test_parse_program () =
  let p =
    Parser.parse ~name:"t"
      "DO i = 1, n\n  DO j = 1, i\n    a(i, j) = a(i - 1, j) + 1.0\n  ENDDO\nENDDO"
  in
  Alcotest.(check (list string)) "params" [ "n" ] p.Ast.params;
  match p.Ast.body with
  | [ Ast.Loop l ] -> (
      Alcotest.(check string) "outer index" "i" l.Ast.index;
      match l.Ast.body with
      | [ Ast.Loop l2 ] ->
          Alcotest.(check string) "inner hi = i" "i"
            (Pretty.expr_to_string l2.Ast.hi);
          Alcotest.(check int) "one stmt" 1 (List.length l2.Ast.body)
      | _ -> Alcotest.fail "expected inner loop")
  | _ -> Alcotest.fail "expected single loop"

let test_parse_step () =
  let p = Parser.parse ~name:"t" "DO k = n, 0, -1\n  a(k) = a(k + 1)\nENDDO" in
  (match p.Ast.body with
  | [ Ast.Loop l ] -> Alcotest.(check int) "step -1" (-1) l.Ast.step
  | _ -> Alcotest.fail "loop expected");
  let p = Parser.parse ~name:"t" "DO k = 1, 10, 3\n  a(k) = b(k)\nENDDO" in
  match p.Ast.body with
  | [ Ast.Loop l ] -> Alcotest.(check int) "step 3" 3 l.Ast.step
  | _ -> Alcotest.fail "loop expected"

let test_parse_errors () =
  let bad s =
    match Parser.parse ~name:"t" s with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  bad "DO i = 1, n a(i) = 1.0";
  (* missing ENDDO *)
  bad "a(i) = ";
  bad "i = 1";
  (* scalar assignment is not a statement *)
  bad "DO i = 1, n, 0\n a(i)=1.0 \nENDDO"

let test_parse_reused_index () =
  (* A loop reusing an enclosing loop's index is an error at its line;
     sibling loops may share an index. *)
  let reuse v line =
    Parser.Error
      (Printf.sprintf "loop index %s reuses the index of an enclosing loop" v, line)
  in
  Alcotest.check_raises "inner DO i" (reuse "i" 2) (fun () ->
      ignore
        (Parser.parse ~name:"t"
           "DO i = 1, 3\n  DO i = 5, 6\n    a(i) = a(i) + 1.0\n  ENDDO\nENDDO"));
  Alcotest.check_raises "two levels down" (reuse "k" 3) (fun () ->
      ignore
        (Parser.parse ~name:"t"
           "DO k = 1, n\n DO j = 1, n\n  DO k = 1, j\n   a(k) = 1.0\n\
           \  ENDDO\n ENDDO\nENDDO"));
  let siblings =
    Parser.parse ~name:"t"
      "DO i = 1, 3\n  a(i) = 1.0\nENDDO\n\
       DO i = 1, 3\n  DO j = 1, i\n    b(i, j) = 2.0\n  ENDDO\nENDDO"
  in
  Alcotest.(check (option string)) "siblings" None (Ast.reused_index siblings);
  let inner = Parser.parse ~name:"t" "DO i = 5, 6\n  a(i) = 1.0\nENDDO" in
  let nested =
    Ast.program ~name:"t"
      [
        Ast.Loop
          { index = "i"; lo = Ast.Int 1; hi = Ast.Int 3; step = 1; body = inner.Ast.body };
      ]
  in
  Alcotest.(check (option string)) "AST-built reuse" (Some "i")
    (Ast.reused_index nested)

let test_roundtrip_builtins () =
  List.iter
    (fun (name, p) ->
      let printed = Pretty.program_to_string p in
      let p2 = Parser.parse ~name printed in
      Alcotest.(check string)
        (name ^ " round-trips") printed
        (Pretty.program_to_string p2))
    Builtin.all

(* ------------------------------------------------------------------ *)
(* Affine                                                               *)

let aff = Alcotest.testable Affine.pp Affine.equal

let test_affine_extract () =
  let a = Affine.of_expr_exn (parse_e "3*i1 + 1") in
  Alcotest.check aff "3i1+1"
    Affine.(add (scale 3 (var "i1")) (const 1))
    a;
  let b = Affine.of_expr_exn (parse_e "2*i1 + i2 - 1") in
  Alcotest.(check int) "coeff i1" 2 (Affine.coeff b "i1");
  Alcotest.(check int) "coeff i2" 1 (Affine.coeff b "i2");
  let c = Affine.of_expr_exn (parse_e "-(i - 2*j)") in
  Alcotest.(check int) "neg distributes" (-1) (Affine.coeff c "i");
  Alcotest.(check int) "neg distributes j" 2 (Affine.coeff c "j");
  Alcotest.(check bool) "non-affine i*j" true
    (Affine.of_expr (parse_e "i*j") = None);
  Alcotest.(check bool) "non-affine ref" true
    (Affine.of_expr (parse_e "a(i)") = None)

let test_affine_eval () =
  let a = Affine.of_expr_exn (parse_e "2*i + 3*j - 4") in
  let env = function "i" -> 5 | "j" -> 1 | _ -> assert false in
  Alcotest.(check int) "eval" 9 (Affine.eval env a)

let test_bound_atoms () =
  (* MAX(-m, -j) as a lower bound: two atoms. *)
  let atoms = Affine.lower_atoms (parse_e "MAX(-m, -j)") in
  Alcotest.(check int) "two lower atoms" 2 (List.length atoms);
  List.iter
    (fun a -> Alcotest.(check int) "den 1" 1 a.Affine.den)
    atoms;
  (* MIN as upper bound *)
  let atoms = Affine.upper_atoms (parse_e "MIN(m, n - k)") in
  Alcotest.(check int) "two upper atoms" 2 (List.length atoms);
  (* floor division *)
  let atoms = Affine.upper_atoms (parse_e "(2*i)/3") in
  (match atoms with
  | [ a ] ->
      Alcotest.(check int) "den 3" 3 a.Affine.den;
      Alcotest.(check int) "num coeff" 2 (Affine.coeff a.Affine.num "i")
  | _ -> Alcotest.fail "one atom expected");
  (* MAX(..) - i distributes *)
  let atoms = Affine.lower_atoms (parse_e "MAX(-m, -j) - i") in
  Alcotest.(check int) "distributed" 2 (List.length atoms);
  List.iter
    (fun a -> Alcotest.(check int) "i coeff" (-1) (Affine.coeff a.Affine.num "i"))
    atoms;
  (* MIN as a lower bound is rejected *)
  (match Affine.lower_atoms (parse_e "MIN(i, j)") with
  | exception Affine.Unsupported _ -> ()
  | _ -> Alcotest.fail "MIN lower bound should be rejected");
  (* negation swaps MIN and MAX *)
  let atoms = Affine.upper_atoms (parse_e "-MAX(i, j)") in
  Alcotest.(check int) "neg max is min" 2 (List.length atoms)

(* ------------------------------------------------------------------ *)
(* Normalize                                                            *)

let test_normalize_negative_step () =
  let p = Parser.parse ~name:"t" "DO k = n, 0, -1\n  a(k) = a(k + 1)\nENDDO" in
  let p' = Normalize.unit_strides p in
  match p'.Ast.body with
  | [ Ast.Loop l ] -> (
      Alcotest.(check int) "unit step" 1 l.Ast.step;
      Alcotest.(check string) "lo 0" "0" (Pretty.expr_to_string l.Ast.lo);
      Alcotest.(check string) "hi n" "n - 0" (Pretty.expr_to_string l.Ast.hi);
      match l.Ast.body with
      | [ Ast.Assign ((_, [ sub ]), _) ] ->
          (* k ↦ n - k: subscript becomes n - 1*k *)
          let a = Affine.of_expr_exn sub in
          Alcotest.(check int) "k coeff" (-1) (Affine.coeff a "k");
          Alcotest.(check int) "n coeff" 1 (Affine.coeff a "n")
      | _ -> Alcotest.fail "assign expected")
  | _ -> Alcotest.fail "loop expected"

let test_normalize_step3 () =
  let p = Parser.parse ~name:"t" "DO k = 1, 10, 3\n  a(k) = b(k)\nENDDO" in
  let p' = Normalize.unit_strides p in
  match p'.Ast.body with
  | [ Ast.Loop l ] ->
      Alcotest.(check int) "unit step" 1 l.Ast.step;
      Alcotest.(check string) "hi (10-1)/3" "(10 - 1)/3"
        (Pretty.expr_to_string l.Ast.hi)
  | _ -> Alcotest.fail "loop expected"

let test_normalize_identity_on_unit () =
  let p = Builtin.example1 in
  let p' = Normalize.unit_strides p in
  Alcotest.(check string) "unchanged" (Pretty.program_to_string p)
    (Pretty.program_to_string p')

(* ------------------------------------------------------------------ *)
(* Prog                                                                 *)

let test_stmt_table_example3 () =
  let infos = Prog.stmts_of Builtin.example3 in
  Alcotest.(check int) "two statements" 2 (List.length infos);
  let s1 = List.nth infos 0 and s2 = List.nth infos 1 in
  Alcotest.(check (list int)) "s1 path" [ 1; 1; 1; 1 ] s1.Prog.path;
  Alcotest.(check (list int)) "s2 path" [ 1; 1; 2 ] s2.Prog.path;
  Alcotest.(check (list string)) "s1 loops" [ "i"; "j"; "k" ]
    (Prog.loop_vars s1);
  Alcotest.(check (list string)) "s2 loops" [ "i"; "j" ] (Prog.loop_vars s2);
  Alcotest.(check int) "max depth" 3 (Prog.max_depth Builtin.example3)

let test_refs_and_arrays () =
  let infos = Prog.stmts_of Builtin.example1 in
  let s = List.hd infos in
  let refs = Prog.refs_of s in
  Alcotest.(check int) "two refs" 2 (List.length refs);
  (match refs with
  | [ (a1, _, Prog.Write); (a2, _, Prog.Read) ] ->
      Alcotest.(check string) "write a" "a" a1;
      Alcotest.(check string) "read a" "a" a2
  | _ -> Alcotest.fail "expected write then read");
  Alcotest.(check (list (pair string int)))
    "arrays" [ ("a", 2) ]
    (Prog.arrays_of Builtin.example1)

let test_cholesky_table () =
  let p = Normalize.unit_strides Builtin.cholesky in
  let infos = Prog.stmts_of p in
  Alcotest.(check int) "9 statements" 9 (List.length infos);
  Alcotest.(check int) "depth 4" 4 (Prog.max_depth p);
  Alcotest.(check (list (pair string int)))
    "arrays"
    [ ("a", 3); ("b", 3); ("epss", 1) ]
    (Prog.arrays_of p);
  Alcotest.(check (list string)) "params" [ "m"; "n"; "nmat"; "nrhs" ]
    p.Ast.params

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)

let gen_affine_expr =
  (* Random affine expressions over {i, j} to round-trip through the
     extractor. *)
  QCheck2.Gen.(
    let leaf =
      oneof
        [
          map (fun k -> Ast.Int k) (int_range (-9) 9);
          oneofl [ Ast.Var "i"; Ast.Var "j" ];
        ]
    in
    let rec build n =
      if n = 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Ast.Bin (Ast.Add, a, b)) (build (n - 1)) (build (n - 1));
            map2 (fun a b -> Ast.Bin (Ast.Sub, a, b)) (build (n - 1)) (build (n - 1));
            map2
              (fun k a -> Ast.Bin (Ast.Mul, Ast.Int k, a))
              (int_range (-4) 4) (build (n - 1));
            map (fun a -> Ast.Un (Ast.Neg, a)) (build (n - 1));
          ]
    in
    build 3)

let prop_affine_agrees_with_eval =
  QCheck2.Test.make ~name:"affine extraction preserves evaluation" ~count:300
    QCheck2.Gen.(triple gen_affine_expr (int_range (-10) 10) (int_range (-10) 10))
    (fun (e, vi, vj) ->
      let a = Affine.of_expr_exn e in
      let env = function "i" -> vi | "j" -> vj | _ -> 0 in
      let rec eval_ast = function
        | Ast.Int k -> k
        | Ast.Var v -> env v
        | Ast.Bin (Ast.Add, a, b) -> eval_ast a + eval_ast b
        | Ast.Bin (Ast.Sub, a, b) -> eval_ast a - eval_ast b
        | Ast.Bin (Ast.Mul, a, b) -> eval_ast a * eval_ast b
        | Ast.Un (Ast.Neg, a) -> -eval_ast a
        | _ -> assert false
      in
      Affine.eval env a = eval_ast e)

let prop_parse_pretty_roundtrip =
  QCheck2.Test.make ~name:"expr parse∘pretty preserves meaning" ~count:300
    QCheck2.Gen.(triple gen_affine_expr (int_range (-10) 10) (int_range (-10) 10))
    (fun (e, vi, vj) ->
      let e' = Parser.parse_expr (Pretty.expr_to_string e) in
      let env = function "i" -> vi | "j" -> vj | _ -> 0 in
      Affine.eval env (Affine.of_expr_exn e')
      = Affine.eval env (Affine.of_expr_exn e))

let () =
  Alcotest.run "loopir"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments/case" `Quick test_lexer_comments_and_case;
          Alcotest.test_case "reals" `Quick test_lexer_reals;
          Alcotest.test_case "errors" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "program structure" `Quick test_parse_program;
          Alcotest.test_case "steps" `Quick test_parse_step;
          Alcotest.test_case "rejects bad input" `Quick test_parse_errors;
          Alcotest.test_case "rejects a reused loop index" `Quick
            test_parse_reused_index;
          Alcotest.test_case "builtin round-trips" `Quick test_roundtrip_builtins;
          QCheck_alcotest.to_alcotest prop_parse_pretty_roundtrip;
        ] );
      ( "affine",
        [
          Alcotest.test_case "extraction" `Quick test_affine_extract;
          Alcotest.test_case "evaluation" `Quick test_affine_eval;
          Alcotest.test_case "bound atoms" `Quick test_bound_atoms;
          QCheck_alcotest.to_alcotest prop_affine_agrees_with_eval;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "negative step" `Quick test_normalize_negative_step;
          Alcotest.test_case "step 3" `Quick test_normalize_step3;
          Alcotest.test_case "identity on unit loops" `Quick
            test_normalize_identity_on_unit;
        ] );
      ( "prog",
        [
          Alcotest.test_case "statement paths (example 3)" `Quick
            test_stmt_table_example3;
          Alcotest.test_case "refs and arrays" `Quick test_refs_and_arrays;
          Alcotest.test_case "cholesky table" `Quick test_cholesky_table;
        ] );
    ]
