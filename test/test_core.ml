(* Tests for the recurrence-chain partitioner (the paper's contribution):
   three-set partitioning, chains, dataflow peeling, Theorem 1, and the
   schedule-legality invariant on random coupled loops. *)

module Iset = Presburger.Iset
module Rel = Presburger.Rel
module Ivec = Linalg.Ivec
module Solve = Depend.Solve
module Threeset = Core.Threeset
module Chain = Core.Chain
module Partition = Core.Partition
module Dataflow = Core.Dataflow
module Recurrence = Core.Recurrence

let points1 set params =
  Iset.points (Iset.bind_params set params) |> List.map (fun v -> v.(0))

(* ------------------------------------------------------------------ *)
(* Figure 2: the paper's worked 1-D example                             *)

let fig2_three () =
  let a = Solve.analyze_simple Loopir.Builtin.fig2 in
  (a, Threeset.compute ~phi:a.Solve.phi ~rd:a.Solve.rd)

let test_fig2_sets () =
  let _, t = fig2_three () in
  (* Paper: first set = initial {1..6} ∪ independent {7,12,14,16,18,20};
     the intermediate set is empty. *)
  Alcotest.(check (list int))
    "P1" [ 1; 2; 3; 4; 5; 6; 7; 12; 14; 16; 18; 20 ]
    (points1 t.Threeset.p1 [||]);
  Alcotest.(check bool) "P2 empty" true (Iset.is_empty t.Threeset.p2);
  Alcotest.(check (list int))
    "P3" [ 8; 9; 10; 11; 13; 15; 17; 19 ]
    (points1 t.Threeset.p3 [||]);
  Alcotest.(check bool) "W empty" true (Iset.is_empty t.Threeset.w)

let test_fig2_cover () =
  let a, t = fig2_three () in
  Alcotest.(check bool) "partition covers Φ" true
    (Threeset.check_cover t ~phi:a.Solve.phi)

let test_fig2_classify_points () =
  let _, t = fig2_three () in
  Alcotest.(check bool) "7 in P1" true
    (Threeset.classify_point t ~params:[||] [| 7 |] = `P1);
  Alcotest.(check bool) "9 in P3" true
    (Threeset.classify_point t ~params:[||] [| 9 |] = `P3);
  Alcotest.(check bool) "0 outside" true
    (Threeset.classify_point t ~params:[||] [| 0 |] = `Outside)

(* ------------------------------------------------------------------ *)
(* Example 1                                                            *)

let ex1_plan () =
  match Partition.choose Loopir.Builtin.example1 with
  | Partition.Rec_chains rp -> rp
  | _ -> Alcotest.fail "example1 must take the REC branch"

let test_ex1_sets_at_10 () =
  let rp = ex1_plan () in
  let c = Partition.materialize_rec rp ~params:[| 10; 10 |] in
  Alcotest.(check int) "P1" 82 (Core.Points.length c.Partition.p1_pts);
  Alcotest.(check int) "P2 (2 chains of 1)" 2
    (Chain.total_points c.Partition.chains);
  Alcotest.(check int) "P3" 16 (Core.Points.length c.Partition.p3_pts);
  Alcotest.(check int) "covers 100 iterations" 100
    (List.length (Partition.rec_points_in_order c));
  (* The intermediate points are (4,3) and (4,4). *)
  let p2 = List.concat (Chain.to_lists c.Partition.chains) in
  Alcotest.(check bool) "(4,3)" true (List.exists (Ivec.equal [| 4; 3 |]) p2);
  Alcotest.(check bool) "(4,4)" true (List.exists (Ivec.equal [| 4; 4 |]) p2)

let test_ex1_theorem_bound () =
  let rp = ex1_plan () in
  (* det T = 3; L = √(N1² + N2²). *)
  let c = Partition.materialize_rec rp ~params:[| 10; 10 |] in
  Alcotest.(check (float 1e-9)) "growth = 3" 3.0 c.Partition.growth;
  (match c.Partition.theorem_bound with
  | Some b ->
      Alcotest.(check int) "bound = 1 + ⌈log₃ √200⌉" 4 b;
      Alcotest.(check bool) "chains within bound" true
        (Core.Theorem.check c.Partition.chains ~bound:b)
  | None -> Alcotest.fail "bound expected");
  let c = Partition.materialize_rec rp ~params:[| 30; 100 |] in
  match c.Partition.theorem_bound with
  | Some b ->
      Alcotest.(check bool) "chains within bound (30×100)" true
        (Core.Theorem.check c.Partition.chains ~bound:b)
  | None -> Alcotest.fail "bound expected"

let test_ex1_cover () =
  let rp = ex1_plan () in
  Alcotest.(check bool) "cover" true
    (Threeset.check_cover rp.Partition.three ~phi:rp.Partition.simple.Solve.phi)

(* ------------------------------------------------------------------ *)
(* Example 2                                                            *)

let test_ex2_intermediate_single () =
  (* Paper: at N = 12 the intermediate set is the single iteration (2,6). *)
  match Partition.choose Loopir.Builtin.example2 with
  | Partition.Rec_chains rp ->
      let pts =
        Iset.points (Iset.bind_params rp.Partition.three.Threeset.p2 [| 12 |])
      in
      (match pts with
      | [ p ] -> Alcotest.check (Alcotest.array Alcotest.int) "(2,6)" [| 2; 6 |] p
      | _ -> Alcotest.fail "intermediate set should be a single iteration");
      let c = Partition.materialize_rec rp ~params:[| 12 |] in
      Alcotest.(check int) "single chain" 1
        (Chain.n_chains c.Partition.chains);
      Alcotest.(check int) "144 iterations covered" 144
        (List.length (Partition.rec_points_in_order c))
  | _ -> Alcotest.fail "example2 must take the REC branch"

let test_ex2_growth () =
  match Partition.choose Loopir.Builtin.example2 with
  | Partition.Rec_chains rp ->
      let c = Partition.materialize_rec rp ~params:[| 12 |] in
      Alcotest.(check (float 1e-9)) "a = |det T| = 2" 2.0 c.Partition.growth
  | _ -> Alcotest.fail "REC expected"

(* ------------------------------------------------------------------ *)
(* Example 3 (statement-level)                                          *)

let test_ex3_empty_intermediate () =
  let u = Solve.analyze_unified Loopir.Builtin.example3 in
  let t = Threeset.compute ~phi:u.Solve.uphi ~rd:u.Solve.urd in
  Alcotest.(check bool) "P2 empty (paper claim)" true
    (Iset.is_empty t.Threeset.p2);
  Alcotest.(check bool) "P1 nonempty" false (Iset.is_empty t.Threeset.p1);
  Alcotest.(check bool) "P3 nonempty" false (Iset.is_empty t.Threeset.p3)

(* ------------------------------------------------------------------ *)
(* Plan selection                                                       *)

let test_choose_branches () =
  (match Partition.choose Loopir.Builtin.example1 with
  | Partition.Rec_chains _ -> ()
  | _ -> Alcotest.fail "ex1 → REC");
  (match Partition.choose Loopir.Builtin.fig2 with
  | Partition.Rec_chains _ -> ()
  | _ -> Alcotest.fail "fig2 → REC (constant bounds but single pair)");
  (match Partition.choose Loopir.Builtin.cholesky with
  | Partition.Pdm_fallback _ -> ()
  | _ -> Alcotest.fail "cholesky (symbolic bounds, many pairs) → PDM");
  match
    Partition.choose
      (Loopir.Parser.parse ~name:"c"
         "DO i = 1, 8\n  DO j = 1, 8\n    a(i, j) = a(j, i) + b(2*i, j)\nENDDO\nENDDO")
  with
  | Partition.Dataflow_const -> ()
  | _ -> Alcotest.fail "constant bounds, no single pair → dataflow"

(* ------------------------------------------------------------------ *)
(* Dataflow partitioning                                                *)

let test_dataflow_symbolic_fig2 () =
  let a = Solve.analyze_simple Loopir.Builtin.fig2 in
  let fronts = Dataflow.peel_symbolic ~phi:a.Solve.phi ~rd:a.Solve.rd ~max_steps:10 in
  Alcotest.(check int) "two fronts" 2 (List.length fronts);
  Alcotest.(check (list int))
    "front 1" [ 1; 2; 3; 4; 5; 6; 7; 12; 14; 16; 18; 20 ]
    (points1 (List.nth fronts 0) [||]);
  Alcotest.(check (list int))
    "front 2" [ 8; 9; 10; 11; 13; 15; 17; 19 ]
    (points1 (List.nth fronts 1) [||])

let test_dataflow_symbolic_nonterminating () =
  (* prefix_sum with symbolic n: the peel cannot finish at compile time. *)
  let a =
    Solve.analyze_simple (List.assoc "prefix_sum" Loopir.Builtin.corpus)
  in
  match Dataflow.peel_symbolic ~phi:a.Solve.phi ~rd:a.Solve.rd ~max_steps:5 with
  | exception Dataflow.Did_not_terminate 5 -> ()
  | _ -> Alcotest.fail "expected step-limit exception"

let test_dataflow_concrete_matches_symbolic () =
  let concrete = Dataflow.peel_concrete Loopir.Builtin.fig2 ~params:[] in
  Alcotest.(check int) "fig2: 2 steps" 2 concrete.Dataflow.steps;
  Alcotest.(check int) "front sizes" 12
    (List.length concrete.Dataflow.fronts.(0));
  Alcotest.(check int) "front 2 size" 8
    (List.length concrete.Dataflow.fronts.(1))

let test_dataflow_concrete_cholesky_small () =
  let c =
    Dataflow.peel_concrete Loopir.Builtin.cholesky
      ~params:[ ("nmat", 2); ("m", 2); ("n", 6); ("nrhs", 1) ]
  in
  Alcotest.(check bool) "many sequential steps" true (c.Dataflow.steps > 10);
  (* Fronts partition all instances. *)
  let total = Array.fold_left (fun acc f -> acc + List.length f) 0 c.Dataflow.fronts in
  Alcotest.(check int) "fronts cover instances"
    (Array.length c.Dataflow.trace.Depend.Trace.instances)
    total

(* ------------------------------------------------------------------ *)
(* Recurrence maps                                                      *)

let test_recurrence_ex1_step () =
  let rp = ex1_plan () in
  let r =
    match Recurrence.of_pair rp.Partition.pair ~params:(fun _ -> 10) with
    | Some r -> r
    | None -> Alcotest.fail "non-singular expected"
  in
  (* successor of (4,3) should be (10,9) = (3·4-2, 2·4+3-2) *)
  let in_phi x = x.(0) >= 1 && x.(0) <= 10 && x.(1) >= 1 && x.(1) <= 10 in
  (match Recurrence.successor r ~in_phi [| 4; 3 |] with
  | Some y -> Alcotest.check (Alcotest.array Alcotest.int) "succ" [| 10; 9 |] y
  | None -> Alcotest.fail "successor expected");
  (* predecessor of (4,3) is (2,1): (3·2-2, 2·2+1-2) = (4,3) *)
  match Recurrence.predecessor r ~in_phi [| 4; 3 |] with
  | Some y -> Alcotest.check (Alcotest.array Alcotest.int) "pred" [| 2; 1 |] y
  | None -> Alcotest.fail "predecessor expected"

let test_recurrence_neighbors_integrality () =
  let rp = ex1_plan () in
  let r =
    Option.get (Recurrence.of_pair rp.Partition.pair ~params:(fun _ -> 10))
  in
  (* (3,1) as read side: predecessor solves 3i-2=3 → not integral; as write
     side: successor (7,5).  So (3,1) has exactly one neighbour. *)
  Alcotest.(check int) "one neighbour" 1
    (List.length (Recurrence.neighbors r [| 3; 1 |]))

(* ------------------------------------------------------------------ *)
(* Schedule-legality invariant on random coupled loops                  *)

let gen_coupled_1d =
  QCheck2.Gen.(
    let* alpha = oneofl [ 1; 2; 3; -1; -2 ] in
    let* beta = int_range (-5) 25 in
    let* gamma = oneofl [ 1; 2; 3; -1; -2 ] in
    let* delta = int_range (-5) 25 in
    let* n = int_range 4 24 in
    pure (alpha, beta, gamma, delta, n))

let legal_schedule_prop (alpha, beta, gamma, delta, n) =
  let src =
    Printf.sprintf "DO i = 1, %d\n  a(%d*i + %d) = a(%d*i + %d)\nENDDO" n alpha
      beta gamma delta
  in
  let prog = Loopir.Parser.parse ~name:"rand" src in
  match Partition.choose prog with
  (* degenerate coupled pairs (e.g. cyclic successor maps) are rejected
     with a diagnostic; the driver degrades, so that is a legal outcome *)
  | Partition.Rec_chains rp
    when Diag.result (fun () -> Partition.materialize_rec rp ~params:[||])
         |> Result.is_error ->
      true
  | Partition.Rec_chains rp ->
      let c = Partition.materialize_rec rp ~params:[||] in
      (* position of each iteration: P1 < chains < P3; within a chain,
         sequence order. *)
      let pos = Hashtbl.create 64 in
      Core.Points.iter (fun p -> Hashtbl.replace pos p.(0) (0, 0)) c.Partition.p1_pts;
      List.iteri
        (fun ci ch ->
          List.iteri (fun k p -> Hashtbl.replace pos p.(0) (1 + ci, k)) ch)
        (Chain.to_lists c.Partition.chains);
      Core.Points.iter (fun p -> Hashtbl.replace pos p.(0) (max_int, 0)) c.Partition.p3_pts;
      (* all dependences respect the phase/chain order *)
      let dep_pairs =
        Iset.points (Iset.bind_params (Rel.to_set rp.Partition.simple.Solve.rd) [||])
      in
      List.for_all
        (fun xy ->
          let x = xy.(0) and y = xy.(1) in
          match (Hashtbl.find_opt pos x, Hashtbl.find_opt pos y) with
          | Some (px, kx), Some (py, ky) ->
              (* same chain → earlier; different phases → strictly earlier
                 phase group (P1 before all chains before P3; chains are
                 mutually independent so a dependence between two distinct
                 chains would be a bug). *)
              if px = py then px = 0 || px = max_int || kx < ky
              else (px = 0 && py > 0) || (py = max_int && px < max_int)
          | _ -> false)
        dep_pairs
      (* coverage: every iteration exactly once *)
      && List.length (Partition.rec_points_in_order c) = n
      && List.sort_uniq compare
           (List.map (fun p -> p.(0)) (Partition.rec_points_in_order c))
         = List.init n (fun k -> k + 1)
  | Partition.Dataflow_const | Partition.Pdm_fallback _ -> true

let prop_random_1d_legal =
  QCheck2.Test.make ~name:"REC schedule legal on random 1-D coupled loops"
    ~count:120 gen_coupled_1d legal_schedule_prop

let gen_coupled_2d =
  QCheck2.Gen.(
    let coef = int_range (-2) 3 in
    let* c1 = coef and* c2 = coef and* c3 = int_range 0 6 in
    let* c4 = coef and* c5 = coef and* c6 = int_range 0 6 in
    let* d1 = coef and* d2 = coef and* d3 = int_range 0 6 in
    let* d4 = coef and* d5 = coef and* d6 = int_range 0 6 in
    let* n = int_range 3 8 in
    pure ((c1, c2, c3, c4, c5, c6), (d1, d2, d3, d4, d5, d6), n))

let legal_2d ((c1, c2, c3, c4, c5, c6), (d1, d2, d3, d4, d5, d6), n) =
  let src =
    Printf.sprintf
      "DO i = 1, %d\n\
      \  DO j = 1, %d\n\
      \    a(%d*i + %d*j + %d, %d*i + %d*j + %d) = a(%d*i + %d*j + %d, %d*i \
       + %d*j + %d)\n\
      \  ENDDO\nENDDO"
      n n c1 c2 c3 c4 c5 c6 d1 d2 d3 d4 d5 d6
  in
  let prog = Loopir.Parser.parse ~name:"rand2" src in
  match Partition.choose prog with
  | Partition.Rec_chains rp -> (
      match Partition.materialize_rec rp ~params:[||] with
      | c ->
          (* coverage of the n×n space, each point exactly once *)
          let pts = Partition.rec_points_in_order c in
          List.length pts = n * n
          && List.length (List.sort_uniq Ivec.compare_lex pts) = n * n
      | exception Diag.Error _ ->
          (* Lemma 1 diagnostics must not fire for full-rank pairs. *)
          false
      | exception Presburger.Omega.Blowup _ ->
          (* Work-budget fallback is acceptable (the driver would degrade to
             dataflow partitioning). *)
          true)
  | Partition.Dataflow_const | Partition.Pdm_fallback _ -> true

let prop_random_2d_cover =
  QCheck2.Test.make ~name:"REC covers random 2-D coupled loops" ~count:60
    gen_coupled_2d legal_2d

(* Satellite of the flat-storage refactor: the scan-based materializer
   must produce the same partition as the enumeration-based one (same
   packed P1/P3 points, same chains up to chain order, same bound). *)
let scan_vs_enum_prop (alpha, beta, gamma, delta, n) =
  let src =
    Printf.sprintf "DO i = 1, %d\n  a(%d*i + %d) = a(%d*i + %d)\nENDDO" n alpha
      beta gamma delta
  in
  let prog = Loopir.Parser.parse ~name:"rand-se" src in
  match Partition.choose prog with
  | Partition.Rec_chains rp -> (
      match
        ( Diag.result (fun () -> Partition.materialize_rec rp ~params:[||]),
          Diag.result (fun () -> Partition.materialize_rec_scan rp ~params:[||])
        )
      with
      | Ok a, Ok b ->
          a.Partition.p1_pts = b.Partition.p1_pts
          && a.Partition.p3_pts = b.Partition.p3_pts
          && List.sort compare (Chain.to_lists a.Partition.chains)
             = List.sort compare (Chain.to_lists b.Partition.chains)
          && a.Partition.theorem_bound = b.Partition.theorem_bound
      (* degenerate pairs (cyclic successor maps, intersecting chains)
         must be rejected by BOTH engines, not silently diverge *)
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false
      | exception Presburger.Omega.Blowup _ -> true)
  | Partition.Dataflow_const | Partition.Pdm_fallback _ -> true

let prop_scan_vs_enum =
  QCheck2.Test.make
    ~name:"Scan ≡ Enum materialization on random 1-D coupled loops" ~count:120
    gen_coupled_1d scan_vs_enum_prop

(* Regression: a(i) = a(-i + 10) has the involution successor map
   f(x) = 10 - x, so 3 -> 7 -> 3 is a 2-cycle inside the space.  The
   scan materializer used to follow it forever; both engines must now
   terminate and agree (either both build the partition or both reject
   with a diagnostic). *)
let test_scan_cycle_terminates () =
  let src = "DO i = 1, 24\n  a(i) = a(-1*i + 10)\nENDDO" in
  let prog = Loopir.Parser.parse ~name:"cycle" src in
  match Partition.choose prog with
  | Partition.Rec_chains rp ->
      let a =
        Diag.result (fun () -> Partition.materialize_rec rp ~params:[||])
      in
      let b =
        Diag.result (fun () -> Partition.materialize_rec_scan rp ~params:[||])
      in
      Alcotest.(check bool)
        "engines agree on acceptance" (Result.is_ok a) (Result.is_ok b)
  | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
      (* still fine: the pair never reaches the chain walkers *)
      ()

(* ------------------------------------------------------------------ *)
(* Flat storage: packed points and chains                               *)

let ivec_list = Alcotest.list (Alcotest.array Alcotest.int)

let test_points_roundtrip () =
  let pts = [ [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |] ] in
  let p = Core.Points.of_list ~dim:2 pts in
  Alcotest.(check int) "length" 3 (Core.Points.length p);
  Alcotest.check ivec_list "roundtrip" pts (Core.Points.to_list p);
  Alcotest.check (Alcotest.array Alcotest.int) "get" [| 3; 4 |]
    (Core.Points.get p 1);
  (* get hands out a fresh copy: mutating it must not reach the buffer *)
  (Core.Points.get p 1).(0) <- 99;
  Alcotest.check (Alcotest.array Alcotest.int) "get is a copy" [| 3; 4 |]
    (Core.Points.get p 1);
  Alcotest.(check int) "empty" 0 (Core.Points.length (Core.Points.empty ~dim:3))

let test_points_builder_growth () =
  let b = Core.Points.Builder.create ~dim:2 in
  for i = 0 to 999 do
    Core.Points.Builder.add b [| i; -i |]
  done;
  let p = Core.Points.Builder.finish b in
  Alcotest.(check int) "n" 1000 (Core.Points.length p);
  Alcotest.check (Alcotest.array Alcotest.int) "first" [| 0; 0 |]
    (Core.Points.get p 0);
  Alcotest.check (Alcotest.array Alcotest.int) "last" [| 999; -999 |]
    (Core.Points.get p 999)

let test_chain_roundtrip () =
  let chains =
    [
      [ [| 1; 1 |]; [| 2; 2 |] ];
      [ [| 5; 3 |] ];
      [ [| 7; 1 |]; [| 8; 2 |]; [| 9; 3 |] ];
    ]
  in
  let c = Chain.of_lists ~dim:2 chains in
  Alcotest.(check int) "n_chains" 3 (Chain.n_chains c);
  Alcotest.(check int) "total" 6 (Chain.total_points c);
  Alcotest.(check int) "longest" 3 c.Chain.longest;
  Alcotest.(check int) "length of chain 1" 1 (Chain.chain_length c 1);
  Alcotest.check (Alcotest.array Alcotest.int) "get" [| 8; 2 |]
    (Chain.get c 2 1);
  Alcotest.check
    (Alcotest.list ivec_list)
    "roundtrip" chains (Chain.to_lists c);
  let empty = Chain.of_lists ~dim:2 [] in
  Alcotest.(check int) "no chains" 0 (Chain.n_chains empty);
  Alcotest.(check int) "no points" 0 (Chain.total_points empty)

let test_chain_scheduling_accessors () =
  let chains =
    [
      [ [| 1; 1 |]; [| 2; 2 |] ];
      [ [| 5; 3 |] ];
      [ [| 7; 1 |]; [| 8; 2 |]; [| 9; 3 |] ];
      [ [| 4; 4 |] ];
    ]
  in
  let c = Chain.of_lists ~dim:2 chains in
  let lengths c = List.init (Chain.n_chains c) (Chain.chain_length c) in
  Alcotest.(check (list int)) "lengths" [ 2; 1; 3; 1 ] (lengths c);
  Alcotest.(check (list int)) "empty lengths" []
    (lengths (Chain.of_lists ~dim:2 []))

let () =
  Alcotest.run "core"
    [
      ( "fig2",
        [
          Alcotest.test_case "three sets (paper)" `Quick test_fig2_sets;
          Alcotest.test_case "cover invariant" `Quick test_fig2_cover;
          Alcotest.test_case "point classification" `Quick
            test_fig2_classify_points;
        ] );
      ( "example1",
        [
          Alcotest.test_case "sets at 10×10" `Quick test_ex1_sets_at_10;
          Alcotest.test_case "theorem 1 bound" `Quick test_ex1_theorem_bound;
          Alcotest.test_case "cover invariant" `Quick test_ex1_cover;
        ] );
      ( "example2",
        [
          Alcotest.test_case "intermediate = {(2,6)} at N=12" `Quick
            test_ex2_intermediate_single;
          Alcotest.test_case "growth = 2" `Quick test_ex2_growth;
        ] );
      ( "example3",
        [
          Alcotest.test_case "empty intermediate set" `Quick
            test_ex3_empty_intermediate;
        ] );
      ( "algorithm1",
        [ Alcotest.test_case "branch selection" `Quick test_choose_branches ] );
      ( "dataflow",
        [
          Alcotest.test_case "symbolic peel (fig2)" `Quick
            test_dataflow_symbolic_fig2;
          Alcotest.test_case "step limit" `Quick
            test_dataflow_symbolic_nonterminating;
          Alcotest.test_case "concrete peel (fig2)" `Quick
            test_dataflow_concrete_matches_symbolic;
          Alcotest.test_case "concrete peel (cholesky small)" `Quick
            test_dataflow_concrete_cholesky_small;
        ] );
      ( "recurrence",
        [
          Alcotest.test_case "step maps (ex1)" `Quick test_recurrence_ex1_step;
          Alcotest.test_case "integrality filtering" `Quick
            test_recurrence_neighbors_integrality;
        ] );
      ( "flat-storage",
        [
          Alcotest.test_case "points roundtrip" `Quick test_points_roundtrip;
          Alcotest.test_case "points builder growth" `Quick
            test_points_builder_growth;
          Alcotest.test_case "chain roundtrip" `Quick test_chain_roundtrip;
          Alcotest.test_case "chain scheduling accessors" `Quick
            test_chain_scheduling_accessors;
          Alcotest.test_case "cyclic successor map terminates" `Quick
            test_scan_cycle_terminates;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_1d_legal;
          QCheck_alcotest.to_alcotest prop_random_2d_cover;
          QCheck_alcotest.to_alcotest prop_scan_vs_enum;
        ] );
    ]
