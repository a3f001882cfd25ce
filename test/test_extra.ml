(* Additional coverage: relation algebra properties cross-checked against
   enumeration, integer expression evaluation, interpreter value semantics,
   and executor work distribution. *)

module L = Presburger.Linexpr
module C = Presburger.Constr
module P = Presburger.Poly
module Iset = Presburger.Iset
module Rel = Presburger.Rel
module Ivec = Linalg.Ivec

(* ------------------------------------------------------------------ *)
(* Relation algebra vs enumeration                                     *)

let box n lo hi =
  List.concat
    (List.init n (fun k ->
         [
           C.Ge (L.add_const (L.var n k) (-lo));
           C.Ge (L.add_const (L.neg (L.var n k)) hi);
         ]))

let gen_rel_poly =
  (* Random relations over 1-in/1-out with a bounding box. *)
  QCheck2.Gen.(
    let* k = int_range 1 2 in
    let* cs =
      list_size (pure k)
        (let* c1 = int_range (-3) 3 in
         let* c2 = int_range (-3) 3 in
         let* c0 = int_range (-6) 6 in
         let* eq = bool in
         pure
           (if eq then C.Eq (L.make [| c1; c2 |] c0)
            else C.Ge (L.make [| c1; c2 |] c0)))
    in
    pure (P.make 2 (cs @ box 2 (-5) 5)))

let mk_rel p = Rel.make ~inn:[| "x" |] ~out:[| "y" |] ~params:[||] [ p ]

let pairs_of r =
  Iset.points (Rel.to_set r) |> List.map (fun a -> (a.(0), a.(1)))

let prop_inverse_swaps =
  QCheck2.Test.make ~name:"inverse swaps pairs" ~count:150 gen_rel_poly
    (fun p ->
      let r = mk_rel p in
      let inv = Rel.inverse r in
      List.sort compare (List.map (fun (a, b) -> (b, a)) (pairs_of r))
      = List.sort compare (pairs_of inv))

let prop_compose_matches =
  QCheck2.Test.make ~name:"compose = relational join" ~count:80
    QCheck2.Gen.(pair gen_rel_poly gen_rel_poly)
    (fun (p1, p2) ->
      let r = mk_rel p1 and s = mk_rel p2 in
      let rs = Rel.compose r s in
      let rp = pairs_of r and sp = pairs_of s in
      let expected =
        List.concat_map
          (fun (a, b) ->
            List.filter_map (fun (b', c) -> if b = b' then Some (a, c) else None) sp)
          rp
        |> List.sort_uniq compare
      in
      List.sort compare (pairs_of rs) = expected)

let prop_dom_ran_match =
  QCheck2.Test.make ~name:"dom/ran = projections of pairs" ~count:150
    gen_rel_poly (fun p ->
      let r = mk_rel p in
      let prs = pairs_of r in
      let dom =
        Iset.points (Rel.dom r) |> List.map (fun a -> a.(0)) |> List.sort_uniq compare
      and ran =
        Iset.points (Rel.ran r) |> List.map (fun a -> a.(0)) |> List.sort_uniq compare
      in
      dom = List.sort_uniq compare (List.map fst prs)
      && ran = List.sort_uniq compare (List.map snd prs))

let prop_deltas_match =
  QCheck2.Test.make ~name:"deltas = differences of pairs" ~count:150
    gen_rel_poly (fun p ->
      let r = mk_rel p in
      Iset.points (Rel.deltas r) |> List.map (fun a -> a.(0))
      = List.sort_uniq compare (List.map (fun (x, y) -> y - x) (pairs_of r)))

let prop_lex_forward_subset =
  QCheck2.Test.make ~name:"lex_forward keeps exactly x < y pairs" ~count:150
    gen_rel_poly (fun p ->
      let r = mk_rel p in
      let fwd = Rel.lex_forward r in
      List.sort compare (pairs_of fwd)
      = List.sort compare (List.filter (fun (a, b) -> a < b) (pairs_of r)))

let test_restrict_dom_ran () =
  (* r = {x→x+1 | 0 ≤ x ≤ 9}; restrict domain to evens. *)
  let p =
    P.make 2
      [ C.Eq (L.make [| 1; -1 |] 1); C.Ge (L.var 2 0);
        C.Ge (L.add_const (L.neg (L.var 2 0)) 9) ]
  in
  let r = mk_rel p in
  let evens =
    Iset.make ~iters:[| "x" |] ~params:[||]
      [ P.make 1 [ C.Div (2, L.var 1 0); C.Ge (L.var 1 0);
                   C.Ge (L.add_const (L.neg (L.var 1 0)) 9) ] ]
  in
  let restricted = Rel.restrict_dom r evens in
  Alcotest.(check (list (pair int int)))
    "even sources only"
    [ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9) ]
    (List.sort compare (pairs_of restricted))

(* ------------------------------------------------------------------ *)
(* Eval_int                                                             *)

let test_eval_int () =
  let e = Loopir.Parser.parse_expr in
  let env = function "i" -> 7 | "j" -> -3 | _ -> failwith "unbound" in
  let check name src expect =
    Alcotest.(check int) name expect (Loopir.Eval_int.eval env (e src))
  in
  check "arith" "2*i + j - 1" 10;
  check "floor div" "j/2" (-2);
  (* floor(-3/2) = -2 *)
  check "min" "MIN(i, j, 4)" (-3);
  check "max" "MAX(i, j, 4)" 7;
  check "mod euclidean" "MOD(j, 5)" 2;
  check "abs" "ABS(j)" 3;
  check "pow" "j**2" 9;
  match Loopir.Eval_int.eval env (e "SQRT(4)") with
  | exception Loopir.Eval_int.Not_integer _ -> ()
  | _ -> Alcotest.fail "SQRT is not integer-valued"

(* ------------------------------------------------------------------ *)
(* Interpreter value semantics                                          *)

let run_single src params =
  let prog = Loopir.Parser.parse ~name:"t" src in
  let env = Runtime.Interp.prepare prog ~params in
  Runtime.Interp.run_sequential env

let test_interp_float_ops () =
  (* out(1) = SQRT(ABS(-9.0)) + MIN(2.0, 5.0) *)
  let store =
    run_single "DO i = 1, 1\n  out(i) = SQRT(ABS(0.0 - 9.0)) + MIN(2.0, 5.0)\nENDDO" []
  in
  Alcotest.(check (float 1e-9)) "sqrt+min" 5.0
    (Runtime.Arrays.get store "out" [ 1 ]);
  let store = run_single "DO i = 1, 1\n  out(i) = 3.0/2.0\nENDDO" [] in
  Alcotest.(check (float 1e-9)) "real division" 1.5
    (Runtime.Arrays.get store "out" [ 1 ]);
  let store = run_single "DO i = 1, 1\n  out(i) = 2.0**3\nENDDO" [] in
  Alcotest.(check (float 1e-9)) "power" 8.0
    (Runtime.Arrays.get store "out" [ 1 ])

let test_interp_accumulation () =
  (* Serial accumulation uses the written values, not stale ones. *)
  let store =
    run_single "DO i = 2, 6\n  s(i) = s(i - 1)*2.0\nENDDO" []
  in
  let s1 = Runtime.Arrays.initial_value "s" [ 1 ] in
  Alcotest.(check (float 1e-9)) "geometric" (s1 *. 32.0)
    (Runtime.Arrays.get store "s" [ 6 ])

let test_interp_negative_indices () =
  let store =
    run_single "DO i = 1, 4\n  a(i - 3) = 1.0*i\nENDDO" []
  in
  Alcotest.(check (float 1e-9)) "a(-2)" 1.0 (Runtime.Arrays.get store "a" [ -2 ]);
  Alcotest.(check (float 1e-9)) "a(1)" 4.0 (Runtime.Arrays.get store "a" [ 1 ])

(* ------------------------------------------------------------------ *)
(* Executor work distribution                                           *)

let test_exec_thread_counts () =
  (* Same result for every thread count, including more threads than work. *)
  let prog = List.assoc "coupled_stretch" Loopir.Builtin.corpus in
  let params = [ ("n", 17) ] in
  let env = Runtime.Interp.prepare prog ~params in
  match Core.Partition.choose prog with
  | Core.Partition.Rec_chains rp ->
      let c = Core.Partition.materialize_rec_scan rp ~params:[| 17 |] in
      let sched = Runtime.Sched.of_rec ~stmt:0 c in
      List.iter
        (fun t ->
          match Runtime.Exec.check env ~threads:t sched with
          | Ok () -> ()
          | Error m -> Alcotest.fail (Printf.sprintf "threads=%d: %s" t m))
        [ 1; 2; 5; 32 ]
  | _ -> Alcotest.fail "REC expected"

(* ------------------------------------------------------------------ *)
(* Pretty/parse round trip of every corpus kernel                       *)

let test_corpus_roundtrip () =
  List.iter
    (fun (name, p) ->
      let printed = Loopir.Pretty.program_to_string p in
      let p2 = Loopir.Parser.parse ~name printed in
      Alcotest.(check string) name printed (Loopir.Pretty.program_to_string p2))
    Loopir.Builtin.corpus

(* ------------------------------------------------------------------ *)
(* Safeint boundary cases exercised through the stack                   *)

let test_large_coefficient_loop () =
  (* Large coefficients should analyze without overflow surprises. *)
  let prog =
    Loopir.Parser.parse ~name:"big" "DO i = 1, 50\n  a(97*i + 1000) = a(89*i)\nENDDO"
  in
  let a = Depend.Solve.analyze_simple prog in
  let pairs =
    Iset.points (Iset.bind_params (Rel.to_set a.Depend.Solve.rd) [||])
  in
  (* 97 i + 1000 = 89 j: brute-force count. *)
  let expected = ref 0 in
  for i = 1 to 50 do
    for j = 1 to 50 do
      if i <> j && (97 * i) + 1000 = 89 * j then incr expected
    done
  done;
  Alcotest.(check int) "exact pair count" !expected (List.length pairs)

let () =
  Alcotest.run "extra"
    [
      ( "relations",
        [
          QCheck_alcotest.to_alcotest prop_inverse_swaps;
          QCheck_alcotest.to_alcotest prop_compose_matches;
          QCheck_alcotest.to_alcotest prop_dom_ran_match;
          QCheck_alcotest.to_alcotest prop_deltas_match;
          QCheck_alcotest.to_alcotest prop_lex_forward_subset;
          Alcotest.test_case "restrict_dom" `Quick test_restrict_dom_ran;
        ] );
      ( "eval",
        [
          Alcotest.test_case "integer expressions" `Quick test_eval_int;
          Alcotest.test_case "float operations" `Quick test_interp_float_ops;
          Alcotest.test_case "accumulation" `Quick test_interp_accumulation;
          Alcotest.test_case "negative indices" `Quick
            test_interp_negative_indices;
        ] );
      ( "exec",
        [ Alcotest.test_case "thread counts" `Quick test_exec_thread_counts ] );
      ( "robustness",
        [
          Alcotest.test_case "corpus round-trips" `Quick test_corpus_roundtrip;
          Alcotest.test_case "large coefficients" `Quick
            test_large_coefficient_loop;
        ] );
    ]
