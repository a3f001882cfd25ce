(* Tests for the Presburger/Omega substrate.  The property tests cross-check
   the symbolic engine against brute-force enumeration over a bounding box,
   which is exact because every generated polyhedron contains its box. *)

module L = Presburger.Linexpr
module C = Presburger.Constr
module P = Presburger.Poly
module Omega = Presburger.Omega
module Dnf = Presburger.Dnf
module Iset = Presburger.Iset
module Rel = Presburger.Rel
module Lexo = Presburger.Lex
module Bounds = Presburger.Bounds

(* Convenient constraint builders; the first argument documents the
   dimension at call sites. *)
let ge _n coef const = C.Ge (L.make (Array.of_list coef) const)
let eq _n coef const = C.Eq (L.make (Array.of_list coef) const)
let dv _n m coef const = C.Div (m, L.make (Array.of_list coef) const)

(* ------------------------------------------------------------------ *)
(* Linexpr                                                              *)

let test_linexpr_ops () =
  let e = L.make [| 2; -3 |] 5 in
  Alcotest.(check int) "eval" 4 (L.eval e [| 1; 1 |]);
  Alcotest.(check int) "coeff" (-3) (L.coeff e 1);
  let f = L.add e (L.var 2 1) in
  Alcotest.(check int) "add coeff" (-2) (L.coeff f 1);
  let g = L.subst e 1 (L.make [| 1; 0 |] 2) in
  (* x1 := x0 + 2 : 2x0 - 3(x0+2) + 5 = -x0 - 1 *)
  Alcotest.(check int) "subst coeff0" (-1) (L.coeff g 0);
  Alcotest.(check int) "subst const" (-1) (L.constant g);
  let h = L.assign e 0 10 in
  Alcotest.(check int) "assign const" 25 (L.constant h);
  Alcotest.(check int) "assign coeff" 0 (L.coeff h 0)

let test_linexpr_remap () =
  let e = L.make [| 1; 2 |] 3 in
  let r = L.remap e 4 [| 2; 0 |] in
  Alcotest.(check int) "remapped c0" 2 (L.coeff r 0);
  Alcotest.(check int) "remapped c2" 1 (L.coeff r 2);
  Alcotest.(check int) "dim" 4 (L.dim r);
  let d = L.drop_var (L.make [| 0; 5 |] 1) 0 in
  Alcotest.(check int) "dropped dim" 1 (L.dim d);
  Alcotest.(check int) "dropped coeff" 5 (L.coeff d 0)

(* ------------------------------------------------------------------ *)
(* Constr                                                               *)

let test_constr_normalize () =
  (* 2x + 4 ≥ 0 → x + 2 ≥ 0 *)
  (match C.normalize (ge 1 [ 2 ] 4) with
  | C.Keep (C.Ge e) ->
      Alcotest.(check int) "tightened coeff" 1 (L.coeff e 0);
      Alcotest.(check int) "tightened const" 2 (L.constant e)
  | _ -> Alcotest.fail "expected Keep Ge");
  (* 2x + 3 ≥ 0 → x + 1 ≥ 0 (integer tightening: x ≥ -3/2 ⟹ x ≥ -1) *)
  (match C.normalize (ge 1 [ 2 ] 3) with
  | C.Keep (C.Ge e) ->
      Alcotest.(check int) "tighten floor" 1 (L.constant e)
  | _ -> Alcotest.fail "expected Keep Ge");
  (* 2x + 3 = 0 has no integer solution *)
  (match C.normalize (eq 1 [ 2 ] 3) with
  | C.Contradiction -> ()
  | _ -> Alcotest.fail "expected contradiction");
  (* constants *)
  (match C.normalize (ge 1 [ 0 ] (-1)) with
  | C.Contradiction -> ()
  | _ -> Alcotest.fail "ground false");
  (match C.normalize (ge 1 [ 0 ] 0) with
  | C.Tautology -> ()
  | _ -> Alcotest.fail "ground true");
  (* Div reduction: 4 | 2x + 2 → 2 | x + 1 *)
  match C.normalize (dv 1 4 [ 2 ] 2) with
  | C.Keep (C.Div (2, e)) ->
      Alcotest.(check int) "div coeff" 1 (L.coeff e 0);
      Alcotest.(check int) "div const" 1 (L.constant e)
  | _ -> Alcotest.fail "expected 2 | x + 1"

let gen_point n = QCheck2.Gen.(array_size (pure n) (int_range (-12) 12))

let gen_constr n =
  QCheck2.Gen.(
    let* kind = int_range 0 2 in
    let* coef = array_size (pure n) (int_range (-3) 3) in
    let* const = int_range (-8) 8 in
    match kind with
    | 0 -> pure (C.Ge (L.make coef const))
    | 1 -> pure (C.Eq (L.make coef const))
    | _ ->
        let* m = int_range 2 4 in
        pure (C.Div (m, L.make coef const)))

let prop_negate_complements =
  QCheck2.Test.make ~name:"negate is pointwise complement" ~count:500
    QCheck2.Gen.(pair (gen_constr 2) (gen_point 2))
    (fun (c, xs) ->
      let holds = C.holds c xs in
      let neg_holds = List.exists (fun nc -> C.holds nc xs) (C.negate c) in
      holds = not neg_holds)

let prop_normalize_preserves =
  QCheck2.Test.make ~name:"normalize preserves satisfaction" ~count:500
    QCheck2.Gen.(pair (gen_constr 2) (gen_point 2))
    (fun (c, xs) ->
      match C.normalize c with
      | C.Keep c' -> C.holds c xs = C.holds c' xs
      | C.Tautology -> C.holds c xs
      | C.Contradiction -> not (C.holds c xs))

(* ------------------------------------------------------------------ *)
(* Omega: emptiness on hand-picked systems                              *)

let box n lo hi =
  List.concat
    (List.init n (fun k ->
         [
           C.Ge (L.add_const (L.var n k) (-lo));
           C.Ge (L.add_const (L.neg (L.var n k)) hi);
         ]))

let test_empty_basic () =
  (* x ≥ 1 ∧ x ≤ 0 *)
  let p = P.make 1 [ ge 1 [ 1 ] (-1); ge 1 [ -1 ] 0 ] in
  Alcotest.(check bool) "interval empty" true (Omega.is_empty p);
  let p = P.make 1 [ ge 1 [ 1 ] (-1); ge 1 [ -1 ] 5 ] in
  Alcotest.(check bool) "interval nonempty" false (Omega.is_empty p);
  (* 2x = 1 *)
  Alcotest.(check bool) "2x=1 empty" true
    (Omega.is_empty (P.make 1 [ eq 1 [ 2 ] (-1) ]));
  Alcotest.(check bool) "2x=4 nonempty" false
    (Omega.is_empty (P.make 1 [ eq 1 [ 2 ] (-4) ]))

let test_empty_diophantine () =
  (* 3x + 5y = 1 has integer solutions… *)
  Alcotest.(check bool) "3x+5y=1" false
    (Omega.is_empty (P.make 2 [ eq 2 [ 3; 5 ] (-1) ]));
  (* …but none with 0 ≤ x,y ≤ 1 *)
  Alcotest.(check bool) "3x+5y=1 in box" true
    (Omega.is_empty (P.make 2 (eq 2 [ 3; 5 ] (-1) :: box 2 0 1)));
  (* 6x + 10y = 3: gcd 2 does not divide 3 *)
  Alcotest.(check bool) "6x+10y=3" true
    (Omega.is_empty (P.make 2 [ eq 2 [ 6; 10 ] (-3) ]))

let test_empty_pugh_example () =
  (* Pugh (CACM'92): 27 ≤ 11x + 13y ≤ 45 ∧ -10 ≤ 7x - 9y ≤ 4 has no integer
     solution although its real shadow is non-empty — exercises dark shadow
     and splinters. *)
  let p =
    P.make 2
      [
        ge 2 [ 11; 13 ] (-27);
        ge 2 [ -11; -13 ] 45;
        ge 2 [ 7; -9 ] 10;
        ge 2 [ -7; 9 ] 4;
      ]
  in
  Alcotest.(check bool) "pugh system empty" true (Omega.is_empty p)

let test_empty_div () =
  let p = P.make 1 (dv 1 2 [ 1 ] 0 :: dv 1 3 [ 1 ] 0 :: box 1 1 5) in
  Alcotest.(check bool) "2|x ∧ 3|x ∧ 1≤x≤5" true (Omega.is_empty p);
  let p = P.make 1 (dv 1 2 [ 1 ] 0 :: dv 1 3 [ 1 ] 0 :: box 1 1 6) in
  Alcotest.(check bool) "…1≤x≤6 has x=6" false (Omega.is_empty p)

(* Coefficients grown by earlier pivots used to make one Fourier–Motzkin
   step emit rmax + 1 splinters per lower bound without limit (about 6,000
   on a 6×6×6 coupled nest, enough to exhaust memory).  The count is now
   bounded like residue branching: 1000·x ≥ y ∧ 1000·x ≤ y + 5 needs 999
   splinters, more than max_branch_modulus, so elimination fails typed. *)
let test_splinter_count_bounded () =
  let p =
    P.make 2 (ge 2 [ 1000; -1 ] 0 :: ge 2 [ -1000; 1 ] 5 :: box 2 0 100_000)
  in
  Alcotest.(check bool) "above the branching bound" true
    (999 > Omega.max_branch_modulus);
  match Omega.eliminate p 0 with
  | _ -> Alcotest.fail "expected Blowup"
  | exception Omega.Blowup m ->
      Alcotest.(check string) "typed message" "splinter count 999" m

(* ------------------------------------------------------------------ *)
(* Brute-force cross-checks                                             *)

let rec box_points n lo hi =
  if n = 0 then [ [] ]
  else
    let rest = box_points (n - 1) lo hi in
    List.concat_map
      (fun v -> List.map (fun tl -> v :: tl) rest)
      (List.init (hi - lo + 1) (fun i -> lo + i))

let brute_points n p =
  List.filter_map
    (fun l ->
      let xs = Array.of_list l in
      if P.mem p xs then Some xs else None)
    (box_points n (-12) 12)

let gen_poly n =
  (* Always includes the box so sets are bounded and brute force is exact. *)
  QCheck2.Gen.(
    let* k = int_range 0 3 in
    let* cs = list_size (pure k) (gen_constr n) in
    pure (P.make n (cs @ box n (-10) 10)))

let prop_emptiness_matches_brute =
  QCheck2.Test.make ~name:"is_empty agrees with brute force (2D)" ~count:300
    (gen_poly 2) (fun p ->
      Omega.is_empty p = (brute_points 2 p = []))

let prop_emptiness_matches_brute_3d =
  QCheck2.Test.make ~name:"is_empty agrees with brute force (3D)" ~count:80
    (gen_poly 3) (fun p ->
      Omega.is_empty p = (brute_points 3 p = []))

let sorted_points pts =
  List.sort_uniq (fun a b -> Linalg.Ivec.compare_lex a b) pts

let prop_projection_exact =
  QCheck2.Test.make ~name:"eliminate = exact integer projection (2D→1D)"
    ~count:300 (gen_poly 2) (fun p ->
      let projected = Omega.eliminate p 1 in
      let expected =
        brute_points 2 p |> List.map (fun xs -> [| xs.(0) |]) |> sorted_points
      in
      let got =
        List.concat_map (brute_points 1) projected |> sorted_points
      in
      expected = got)

let prop_projection_exact_mid =
  QCheck2.Test.make ~name:"eliminate middle var exact (3D→2D)" ~count:80
    (gen_poly 3) (fun p ->
      let projected = Omega.eliminate p 1 in
      let expected =
        brute_points 3 p
        |> List.map (fun xs -> [| xs.(0); xs.(2) |])
        |> sorted_points
      in
      let got =
        List.concat_map (brute_points 2) projected |> sorted_points
      in
      expected = got)

let prop_greedy_projection_exact =
  QCheck2.Test.make ~name:"project_out_greedy exact (3D→1D)" ~count:80
    (gen_poly 3) (fun p ->
      let expected =
        brute_points 3 p |> List.map (fun xs -> [| xs.(1) |]) |> sorted_points
      in
      let got =
        List.concat_map (brute_points 1) (Omega.project_out_greedy p [ 0; 2 ])
        |> sorted_points
      in
      expected = got)

let prop_diff_pointwise =
  QCheck2.Test.make ~name:"diff is pointwise difference" ~count:150
    QCheck2.Gen.(pair (gen_poly 2) (gen_poly 2))
    (fun (a, b) ->
      let d = Dnf.diff [ a ] [ b ] in
      List.for_all
        (fun l ->
          let xs = Array.of_list l in
          Dnf.mem d xs = (P.mem a xs && not (P.mem b xs)))
        (box_points 2 (-11) 11))

let prop_points_match_brute =
  QCheck2.Test.make ~name:"Bounds.points = brute force" ~count:150
    QCheck2.Gen.(pair (gen_poly 2) (gen_poly 2))
    (fun (a, b) ->
      let got = Bounds.points 2 [ a; b ] in
      let expected =
        sorted_points (brute_points 2 a @ brute_points 2 b)
      in
      got = expected)

let prop_simplify_preserves =
  QCheck2.Test.make ~name:"simplify preserves the set" ~count:100
    QCheck2.Gen.(pair (gen_poly 2) (gen_poly 2))
    (fun (a, b) ->
      let s = Dnf.simplify ~aggressive:true [ a; b ] in
      List.for_all
        (fun l ->
          let xs = Array.of_list l in
          Dnf.mem s xs = (P.mem a xs || P.mem b xs))
        (box_points 2 (-11) 11))

(* ------------------------------------------------------------------ *)
(* Iset / Rel                                                           *)

let iters2 = [| "i"; "j" |]
let no_params = ([||] : string array)

let test_iset_ops () =
  let mk cons = P.make 2 cons in
  let s1 = Iset.make ~iters:iters2 ~params:no_params [ mk (box 2 1 5) ] in
  let s2 = Iset.make ~iters:iters2 ~params:no_params [ mk (box 2 3 8) ] in
  let inter = Iset.inter s1 s2 in
  Alcotest.(check bool) "mem (4,4)" true (Iset.mem inter [| 4; 4 |]);
  Alcotest.(check bool) "not mem (2,4)" false (Iset.mem inter [| 2; 4 |]);
  let d = Iset.diff s1 s2 in
  Alcotest.(check bool) "diff mem (2,2)" true (Iset.mem d [| 2; 2 |]);
  Alcotest.(check bool) "diff not mem (4,4)" false (Iset.mem d [| 4; 4 |]);
  Alcotest.(check bool) "union = s1 when subset" true
    (Iset.subset (Iset.inter s1 s2) s1);
  Alcotest.(check int) "cardinal 5x5" 25 (List.length (Iset.points s1))

let test_iset_params () =
  (* { i | 1 ≤ i ≤ N } with parameter N bound to 7. *)
  let iters = [| "i" |] and params = [| "N" |] in
  let p =
    P.make 2
      [
        C.Ge (L.make [| 1; 0 |] (-1));
        (* i - 1 ≥ 0 *)
        C.Ge (L.make [| -1; 1 |] 0);
        (* N - i ≥ 0 *)
      ]
  in
  let s = Iset.make ~iters ~params [ p ] in
  Alcotest.(check bool) "nonempty symbolically" false (Iset.is_empty s);
  let b = Iset.bind_params s [| 7 |] in
  Alcotest.(check int) "7 points" 7 (List.length (Iset.points b));
  Alcotest.(check bool) "mem 7" true (Iset.mem b [| 7 |]);
  Alcotest.(check bool) "not mem 8" false (Iset.mem b [| 8 |])

(* Unions of one to three overlapping disjuncts in the box [-4,4]³, each
   cut by a few random constraints: the points must be exactly the box
   points some disjunct holds, strictly increasing, so the merge of the
   disjuncts' scans has to drop the points they share. *)
let gen_union_3d =
  QCheck2.Gen.(
    let disjunct =
      let* k = int_range 0 2 in
      let* cs = list_size (pure k) (gen_constr 3) in
      pure (P.make 3 (cs @ box 3 (-4) 4))
    in
    list_size (int_range 1 3) disjunct)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) ->
      Linalg.Ivec.compare_lex a b < 0 && strictly_increasing rest
  | [ _ ] | [] -> true

let prop_points_union_3d =
  QCheck2.Test.make ~name:"points = brute force, increasing (3D unions)"
    ~count:200 gen_union_3d (fun ps ->
      let got =
        Iset.points (Iset.make ~iters:[| "i"; "j"; "k" |] ~params:no_params ps)
      in
      let expected =
        List.filter_map
          (fun l ->
            let xs = Array.of_list l in
            if List.exists (fun p -> P.mem p xs) ps then Some xs else None)
          (box_points 3 (-4) 4)
      in
      got = expected && strictly_increasing got)

let test_eq_negative_coef () =
  (* -3i + 12 = 0 has the single solution i = 4 whatever the sign of the
     leading coefficient; -3i + 7 = 0 has no integer solution. *)
  let iters = [| "i" |] in
  let solvable =
    Iset.make ~iters ~params:no_params
      [ P.make 1 [ eq 1 [ -3 ] 12; ge 1 [ 1 ] 0 ] ]
  in
  Alcotest.(check bool) "it is 4" true (Iset.points solvable = [ [| 4 |] ]);
  let unsolvable =
    Iset.make ~iters ~params:no_params
      [ P.make 1 [ eq 1 [ -3 ] 7; ge 1 [ 1 ] 0 ] ]
  in
  Alcotest.(check bool) "no integer solution" true
    (Iset.points unsolvable = [])

(* The figure-2 relation of the paper: pairs (i,j) with 2i = 21 - j over
   1..20, oriented forward. *)
let fig2_rel () =
  let inn = [| "i" |] and out = [| "j" |] in
  let p =
    P.make 2
      (eq 2 [ 2; 1 ] (-21)
      :: [
           ge 2 [ 1; 0 ] (-1);
           ge 2 [ -1; 0 ] 20;
           ge 2 [ 0; 1 ] (-1);
           ge 2 [ 0; -1 ] 20;
         ])
  in
  Rel.symmetric_closure_forward
    (Rel.make ~inn ~out ~params:no_params [ p ])

let test_rel_fig2 () =
  let rd = fig2_rel () in
  (* Forward arrows computed by hand: (1,19) (2,17) (3,15) (4,13) (5,11)
     (6,9) (5,8) (3,9) (1,10).  Self-pair (7,7) must be excluded by ≺. *)
  let expect = [ (1, 19); (2, 17); (3, 15); (4, 13); (5, 11); (6, 9); (5, 8); (3, 9); (1, 10) ] in
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d) in Rd" i j)
        true
        (Rel.mem rd ~params:[||] [| i |] [| j |]))
    expect;
  Alcotest.(check bool) "no self-dep (7,7)" false
    (Rel.mem rd ~params:[||] [| 7 |] [| 7 |]);
  (* dom and ran as point sets *)
  let dom_pts = Iset.points (Rel.dom rd) in
  let ran_pts = Iset.points (Rel.ran rd) in
  let to_list pts = List.map (fun a -> a.(0)) pts in
  Alcotest.(check (list int)) "dom" [ 1; 2; 3; 4; 5; 6 ] (to_list dom_pts);
  Alcotest.(check (list int))
    "ran" [ 8; 9; 10; 11; 13; 15; 17; 19 ] (to_list ran_pts);
  (* image/preimage *)
  Alcotest.(check (list int)) "image of 3" [ 9; 15 ]
    (List.map (fun a -> a.(0)) (Rel.image rd ~params:[||] [| 3 |]));
  Alcotest.(check (list int)) "preimage of 9" [ 3; 6 ]
    (List.map (fun a -> a.(0)) (Rel.preimage rd ~params:[||] [| 9 |]))

let test_rel_compose () =
  (* r = {x → x+2 | 0 ≤ x ≤ 10}, r∘r = {x → x+4 | …} *)
  let inn = [| "x" |] and out = [| "y" |] in
  let p =
    P.make 2 [ eq 2 [ 1; -1 ] 2; ge 2 [ 1; 0 ] 0; ge 2 [ -1; 0 ] 10 ]
  in
  let r = Rel.make ~inn ~out ~params:no_params [ p ] in
  let rr = Rel.compose r r in
  Alcotest.(check bool) "0→4" true (Rel.mem rr ~params:[||] [| 0 |] [| 4 |]);
  Alcotest.(check bool) "0→2 not" false
    (Rel.mem rr ~params:[||] [| 0 |] [| 2 |]);
  Alcotest.(check bool) "9→13 needs mid 11 out of bounds" false
    (Rel.mem rr ~params:[||] [| 9 |] [| 13 |]);
  Alcotest.(check bool) "8→12" true (Rel.mem rr ~params:[||] [| 8 |] [| 12 |])

let test_lex () =
  let lt = Lexo.lt ~n_total:4 ~fst_off:0 ~snd_off:2 ~len:2 in
  let mem i j = Dnf.mem lt (Array.append i j) in
  Alcotest.(check bool) "(1,5)≺(2,0)" true (mem [| 1; 5 |] [| 2; 0 |]);
  Alcotest.(check bool) "(1,5)≺(1,6)" true (mem [| 1; 5 |] [| 1; 6 |]);
  Alcotest.(check bool) "(1,5)⊀(1,5)" false (mem [| 1; 5 |] [| 1; 5 |]);
  Alcotest.(check bool) "(2,0)⊀(1,9)" false (mem [| 2; 0 |] [| 1; 9 |]);
  let le_ = Lexo.le ~n_total:4 ~fst_off:0 ~snd_off:2 ~len:2 in
  Alcotest.(check bool) "(1,5)≼(1,5)" true
    (Dnf.mem le_ [| 1; 5; 1; 5 |])

let () =
  Alcotest.run "presburger"
    [
      ( "linexpr",
        [
          Alcotest.test_case "ops" `Quick test_linexpr_ops;
          Alcotest.test_case "remap/drop" `Quick test_linexpr_remap;
        ] );
      ( "constr",
        [
          Alcotest.test_case "normalize" `Quick test_constr_normalize;
          QCheck_alcotest.to_alcotest prop_negate_complements;
          QCheck_alcotest.to_alcotest prop_normalize_preserves;
        ] );
      ( "omega",
        [
          Alcotest.test_case "basic emptiness" `Quick test_empty_basic;
          Alcotest.test_case "diophantine" `Quick test_empty_diophantine;
          Alcotest.test_case "pugh dark-shadow example" `Quick
            test_empty_pugh_example;
          Alcotest.test_case "divisibility" `Quick test_empty_div;
          QCheck_alcotest.to_alcotest prop_emptiness_matches_brute;
          QCheck_alcotest.to_alcotest prop_emptiness_matches_brute_3d;
          QCheck_alcotest.to_alcotest prop_projection_exact;
          QCheck_alcotest.to_alcotest prop_projection_exact_mid;
          QCheck_alcotest.to_alcotest prop_greedy_projection_exact;
          Alcotest.test_case "splinter count bounded" `Quick
            test_splinter_count_bounded;
        ] );
      ( "dnf",
        [
          QCheck_alcotest.to_alcotest prop_diff_pointwise;
          QCheck_alcotest.to_alcotest prop_points_match_brute;
          QCheck_alcotest.to_alcotest prop_simplify_preserves;
        ] );
      ( "iset",
        [
          Alcotest.test_case "set algebra" `Quick test_iset_ops;
          Alcotest.test_case "parameters" `Quick test_iset_params;
          QCheck_alcotest.to_alcotest prop_points_union_3d;
          Alcotest.test_case "1-D equality, negative coefficient" `Quick
            test_eq_negative_coef;
        ] );
      ( "rel",
        [
          Alcotest.test_case "paper fig.2 relation" `Quick test_rel_fig2;
          Alcotest.test_case "compose" `Quick test_rel_compose;
          Alcotest.test_case "lex order" `Quick test_lex;
        ] );
    ]
