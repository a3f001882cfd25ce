(* Tests for code generation: Fourier–Motzkin bound extraction, scanned by
   [Bounds.scan], must enumerate exactly the polyhedron's points (validated
   against a brute-force walk of a bounding box), and the emitted listings
   must contain the paper's structural elements. *)

module L = Presburger.Linexpr
module C = Presburger.Constr
module P = Presburger.Poly
module Bounds = Presburger.Bounds
module Emit = Codegen.Emit
module Iset = Presburger.Iset

let ge coef const = C.Ge (L.make (Array.of_list coef) const)
let eq coef const = C.Eq (L.make (Array.of_list coef) const)
let dv m coef const = C.Div (m, L.make (Array.of_list coef) const)

(* The points of the box [lo, hi]^n that some polyhedron holds, in
   lexicographic order: exact whenever the polyhedra lie inside the box. *)
let brute n ~lo ~hi polys =
  let rec go k prefix acc =
    if k = n then
      let xs = Array.of_list (List.rev prefix) in
      if List.exists (fun p -> P.mem p xs) polys then xs :: acc else acc
    else
      let acc = ref acc in
      for v = hi downto lo do
        acc := go (k + 1) (v :: prefix) !acc
      done;
      !acc
  in
  go 0 [] []

let check_nest_matches name p n_iters =
  let nest = Bounds.of_poly ~n_iters p in
  let got = Bounds.scan nest in
  let expected = brute (P.dim p) ~lo:(-25) ~hi:25 [ p ] in
  Alcotest.(check int)
    (name ^ " count")
    (List.length expected) (List.length got);
  Alcotest.(check bool)
    (name ^ " same points")
    true
    (List.sort compare got = List.sort compare expected)

let test_bounds_triangle () =
  (* 1 ≤ i ≤ 8, 1 ≤ j ≤ i *)
  let p =
    P.make 2
      [ ge [ 1; 0 ] (-1); ge [ -1; 0 ] 8; ge [ 0; 1 ] (-1); ge [ 1; -1 ] 0 ]
  in
  check_nest_matches "triangle" p 2

let test_bounds_diagonal_equality () =
  (* 2j = i, 0 ≤ i ≤ 10: j bounds are the exact halved range. *)
  let p = P.make 2 [ eq [ 1; -2 ] 0; ge [ 1; 0 ] 0; ge [ -1; 0 ] 10 ] in
  check_nest_matches "diagonal" p 2

let test_bounds_divisibility_guard () =
  (* 1 ≤ i ≤ 20 ∧ 3 | i + 1 *)
  let p = P.make 1 [ ge [ 1 ] (-1); ge [ -1 ] 20; dv 3 [ 1 ] 1 ] in
  let nest = Bounds.of_poly ~n_iters:1 p in
  Alcotest.(check int) "one guard" 1
    (List.length nest.Bounds.levels.(0).Bounds.guards);
  check_nest_matches "mod guard" p 1

let test_bounds_transitive () =
  (* i ≤ j ∧ 1 ≤ j ≤ 5: i's upper bound must come through j's. *)
  let p = P.make 2 [ ge [ -1; 1 ] 0; ge [ 0; 1 ] (-1); ge [ 0; -1 ] 5; ge [ 1; 0 ] (-2) ] in
  check_nest_matches "transitive" p 2

let test_bounds_unbounded_detected () =
  let p = P.make 1 [ ge [ 1 ] 0 ] in
  match Bounds.of_poly ~n_iters:1 p with
  | exception Bounds.Unbounded 0 -> ()
  | _ -> Alcotest.fail "unbounded not detected"

let test_bounds_empty_poly () =
  let p = P.make 1 [ ge [ 1 ] 0; ge [ -1 ] (-5) ] in
  (* i ≥ 0 ∧ i ≤ -5: normalize keeps it; nest enumerates nothing. *)
  let nest = Bounds.of_poly ~n_iters:1 p in
  Alcotest.(check (list (list int))) "no points" []
    (List.map Array.to_list (Bounds.scan nest))

(* Property: random bounded polyhedra round-trip through bound extraction. *)
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

let box n lo hi =
  List.concat
    (List.init n (fun k ->
         [
           C.Ge (L.add_const (L.var n k) (-lo));
           C.Ge (L.add_const (L.neg (L.var n k)) hi);
         ]))

let gen_poly n =
  QCheck2.Gen.(
    let* k = int_range 0 2 in
    let* cs = list_size (pure k) (gen_constr n) in
    pure (P.make n (cs @ box n (-6) 6)))

let prop_nest_exact =
  QCheck2.Test.make ~name:"nest enumeration = exact points (2D)" ~count:200
    (gen_poly 2) (fun p ->
      let nest = Bounds.of_poly ~n_iters:2 p in
      Bounds.scan nest = brute 2 ~lo:(-6) ~hi:6 [ p ])

let prop_nest_strided_exact =
  QCheck2.Test.make ~name:"strided nest enumeration = exact points (2D)"
    ~count:200 (gen_poly 2) (fun p ->
      let nest = Bounds.with_strides (Bounds.of_poly ~n_iters:2 p) in
      Bounds.scan nest = brute 2 ~lo:(-6) ~hi:6 [ p ])

let prop_points_union_exact =
  QCheck2.Test.make ~name:"points of a union = exact points (2D)" ~count:150
    QCheck2.Gen.(list_size (int_range 0 3) (gen_poly 2))
    (fun ps -> Bounds.points 2 ps = brute 2 ~lo:(-6) ~hi:6 ps)

let test_stride_extraction () =
  (* 1 ≤ i ≤ 20 ∧ 3 | i + 1: stride 3 starting at residue 2. *)
  let p = P.make 1 [ ge [ 1 ] (-1); ge [ -1 ] 20; dv 3 [ 1 ] 1 ] in
  let nest = Bounds.with_strides (Bounds.of_poly ~n_iters:1 p) in
  (match nest.Bounds.levels.(0).Bounds.stride with
  | Some (3, _) -> ()
  | _ -> Alcotest.fail "stride 3 expected");
  Alcotest.(check int) "guard consumed" 0
    (List.length nest.Bounds.levels.(0).Bounds.guards);
  let got = Bounds.scan nest |> List.map (fun a -> a.(0)) in
  Alcotest.(check (list int)) "points" [ 2; 5; 8; 11; 14; 17; 20 ] got

let test_stride_non_coprime_kept_as_guard () =
  (* 4 | 2i + 1 is unsatisfiable and gcd(2,4) ≠ 1: must stay a guard (the
     normalizer reduces it to 2 | 2i + 1 → 2 | 1 → contradiction, so the
     nest is empty). *)
  let p = P.make 1 [ ge [ 1 ] 0; ge [ -1 ] 10; dv 4 [ 2 ] 1 ] in
  let nest = Bounds.with_strides (Bounds.of_poly ~n_iters:1 p) in
  Alcotest.(check (list (list int))) "no points" []
    (List.map Array.to_list (Bounds.scan nest))

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_emit_doall_structure () =
  let a = Depend.Solve.analyze_simple Loopir.Builtin.example1 in
  let three = Core.Threeset.compute ~phi:a.Depend.Solve.phi ~rd:a.Depend.Solve.rd in
  let txt =
    Emit.doall_of_set ~names:(Iset.names a.Depend.Solve.phi) three.Core.Threeset.p1
  in
  Alcotest.(check bool) "has DOALL" true (contains txt "DOALL i1");
  Alcotest.(check bool) "has ENDDOALL" true (contains txt "ENDDOALL");
  Alcotest.(check bool) "body call" true (contains txt "s(i1, i2)")

let test_emit_rec_listing_ex1 () =
  match Core.Partition.choose Loopir.Builtin.example1 with
  | Core.Partition.Rec_chains rp ->
      let txt = Emit.rec_partitioning rp in
      Alcotest.(check bool) "P1 header" true (contains txt "initial partition");
      Alcotest.(check bool) "W calls chain" true (contains txt "CALL chain");
      Alcotest.(check bool) "final partition" true (contains txt "final partition");
      Alcotest.(check bool) "chain subroutine" true
        (contains txt "SUBROUTINE chain(i1, i2)");
      (* The step of example 1: i1' = 3·i1 - 2, i2' = 2·i1 + i2 - 2. *)
      Alcotest.(check bool) "step i1" true (contains txt "3*i1 - 2");
      Alcotest.(check bool) "step i2" true (contains txt "2*i1 + i2 - 2")
  | _ -> Alcotest.fail "REC expected"

let test_emit_dataflow_listing () =
  let a = Depend.Solve.analyze_simple Loopir.Builtin.fig2 in
  let fronts =
    Core.Dataflow.peel_symbolic ~phi:a.Depend.Solve.phi ~rd:a.Depend.Solve.rd
      ~max_steps:10
  in
  let txt = Emit.dataflow_listing fronts ~names:(Iset.names a.Depend.Solve.phi) in
  Alcotest.(check bool) "front 1" true (contains txt "dataflow front 1");
  Alcotest.(check bool) "front 2" true (contains txt "dataflow front 2")

(* ------------------------------------------------------------------ *)
(* Visualization                                                        *)

let test_viz_dot_trace () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Depend.Trace.build prog ~params:[ ("n", 6) ] in
  let dot = Codegen.Viz.dot_of_trace tr in
  Alcotest.(check bool) "digraph" true (contains dot "digraph dependences");
  Alcotest.(check bool) "node" true (contains dot "S0(2)");
  Alcotest.(check bool) "edge" true (contains dot "->");
  (* truncation marker on tiny cap *)
  let dot2 = Codegen.Viz.dot_of_trace ~max_nodes:2 tr in
  Alcotest.(check bool) "truncated" true (contains dot2 "truncated")

and test_viz_dot_chains () =
  match Core.Partition.choose Loopir.Builtin.example1 with
  | Core.Partition.Rec_chains rp ->
      let c = Core.Partition.materialize_rec rp ~params:[| 10; 10 |] in
      let dot = Codegen.Viz.dot_of_chains c.Core.Partition.chains in
      Alcotest.(check bool) "digraph" true (contains dot "digraph chains");
      Alcotest.(check bool) "chain point (4, 3)" true (contains dot "(4, 3)")
  | _ -> Alcotest.fail "REC expected"

and test_viz_ascii () =
  match Core.Partition.choose Loopir.Builtin.example1 with
  | Core.Partition.Rec_chains rp ->
      let grid =
        Codegen.Viz.ascii_three_sets rp.Core.Partition.three
          ~params:[| 10; 10 |] ~x_range:(1, 10) ~y_range:(1, 10)
      in
      (* rows 1-2 are pure P1; (4,3) is intermediate *)
      Alcotest.(check bool) "has P1 row" true (contains grid "1111111111");
      Alcotest.(check bool) "has intermediate mark" true (contains grid "2")
  | _ -> Alcotest.fail "REC expected"

let () =
  Alcotest.run "codegen"
    [
      ( "bounds",
        [
          Alcotest.test_case "triangle nest" `Quick test_bounds_triangle;
          Alcotest.test_case "equality stride" `Quick
            test_bounds_diagonal_equality;
          Alcotest.test_case "divisibility guard" `Quick
            test_bounds_divisibility_guard;
          Alcotest.test_case "transitive bound" `Quick test_bounds_transitive;
          Alcotest.test_case "unbounded detected" `Quick
            test_bounds_unbounded_detected;
          Alcotest.test_case "empty polyhedron" `Quick test_bounds_empty_poly;
          QCheck_alcotest.to_alcotest prop_nest_exact;
          QCheck_alcotest.to_alcotest prop_nest_strided_exact;
          QCheck_alcotest.to_alcotest prop_points_union_exact;
          Alcotest.test_case "stride extraction" `Quick test_stride_extraction;
          Alcotest.test_case "non-coprime stride stays guard" `Quick
            test_stride_non_coprime_kept_as_guard;
        ] );
      ( "emit",
        [
          Alcotest.test_case "DOALL structure" `Quick test_emit_doall_structure;
          Alcotest.test_case "REC listing (ex1)" `Quick
            test_emit_rec_listing_ex1;
          Alcotest.test_case "dataflow listing (fig2)" `Quick
            test_emit_dataflow_listing;
        ] );
      ( "viz",
        [
          Alcotest.test_case "DOT trace" `Quick test_viz_dot_trace;
          Alcotest.test_case "DOT chains" `Quick test_viz_dot_chains;
          Alcotest.test_case "ASCII grid" `Quick test_viz_ascii;
        ] );
    ]
