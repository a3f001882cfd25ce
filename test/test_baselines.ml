(* Tests for the comparison schemes: PDM/PL lattices, UNIQUE sets,
   DOACROSS pipeline, inner-loop parallelization — each one's schedule must
   be dependence-legal and semantics-preserving. *)

module Pdm = Baselines.Pdm
module Pl = Baselines.Pl
module Unique = Baselines.Unique
module Doacross = Baselines.Doacross
module Innerpar = Baselines.Innerpar
module Mindist = Baselines.Mindist
module Sched = Runtime.Sched
module Interp = Runtime.Interp
module Solve = Depend.Solve
module Trace = Depend.Trace
module Iset = Presburger.Iset
module Ivec = Linalg.Ivec

let phi_points prog params =
  let a = Solve.analyze_simple prog in
  (a, Iset.points (Iset.bind_params a.Solve.phi params))

(* ------------------------------------------------------------------ *)
(* PDM                                                                  *)

let test_pdm_lattice_ex1 () =
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  let t = Pdm.of_simple a ~params:[| 10; 10 |] in
  (* Distances (2,2), (4,4), (6,6) → lattice generated by (2,2). *)
  Alcotest.(check int) "rank 1" 1 (Linalg.Hnf.rank t.Pdm.basis);
  Alcotest.(check bool) "covers (2,2)" true (Pdm.covers t [| 2; 2 |]);
  Alcotest.(check bool) "covers (6,6)" true (Pdm.covers t [| 6; 6 |]);
  Alcotest.(check bool) "not (1,1)" false (Pdm.covers t [| 1; 1 |]);
  Alcotest.(check (list bool)) "no fully parallel dim" [ false; false ]
    (Array.to_list t.Pdm.parallel_dims)

let test_pdm_cosets_cover () =
  let a, pts = phi_points Loopir.Builtin.example1 [| 8; 8 |] in
  let t = Pdm.of_simple a ~params:[| 8; 8 |] in
  let groups = Pdm.cosets t pts in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  Alcotest.(check int) "cosets cover" (List.length pts) total;
  (* Same coset ⟺ difference in lattice. *)
  List.iter
    (fun g ->
      match g with
      | p :: rest ->
          List.iter
            (fun q ->
              Alcotest.(check bool) "difference covered" true
                (Pdm.covers t (Ivec.sub q p)))
            rest
      | [] -> ())
    groups

let test_pdm_schedule_legal_and_semantic () =
  let a, pts = phi_points Loopir.Builtin.example1 [| 9; 9 |] in
  let t = Pdm.of_simple a ~params:[| 9; 9 |] in
  let sched = Pdm.schedule t ~stmt:0 pts in
  let params = [ ("n1", 9); ("n2", 9) ] in
  let tr = Trace.build Loopir.Builtin.example1 ~params in
  (match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m));
  let env = Interp.prepare Loopir.Builtin.example1 ~params in
  match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("semantics: " ^ m)

let test_pdm_outer_parallel_dim () =
  (* Dependences only along the second dimension: first column zero →
     outermost loop fully parallel. *)
  let prog =
    Loopir.Parser.parse ~name:"p"
      "DO i = 1, 8\n  DO j = 2, 8\n    a(i, j) = a(i, j - 1)\n  ENDDO\nENDDO"
  in
  let a = Solve.analyze_simple prog in
  let t = Pdm.of_simple a ~params:[||] in
  Alcotest.(check (list bool)) "i parallel, j not" [ true; false ]
    (Array.to_list t.Pdm.parallel_dims)

(* ------------------------------------------------------------------ *)
(* PL vs PDM granularity                                                *)

let test_pl_coarser_than_pdm () =
  let a, pts = phi_points Loopir.Builtin.example1 [| 10; 10 |] in
  let pdm = Pdm.of_simple a ~params:[| 10; 10 |] in
  let pl = Pl.of_simple a ~params:[| 10; 10 |] in
  (* PL normalizes (2,2)… to (1,1): fewer cosets → less parallelism. *)
  let d_pdm = Pdm.degree_of_parallelism pdm pts in
  let d_pl = Pdm.degree_of_parallelism pl pts in
  Alcotest.(check bool)
    (Printf.sprintf "PL (%d) ≤ PDM (%d)" d_pl d_pdm)
    true (d_pl <= d_pdm);
  Alcotest.(check bool) "strictly coarser here" true (d_pl < d_pdm);
  (* PL schedule is still legal and semantics-preserving. *)
  let sched = Pl.schedule pl ~stmt:0 pts in
  let params = [ ("n1", 10); ("n2", 10) ] in
  let tr = Trace.build Loopir.Builtin.example1 ~params in
  (match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m));
  let env = Interp.prepare Loopir.Builtin.example1 ~params in
  match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("semantics: " ^ m)

(* ------------------------------------------------------------------ *)
(* UNIQUE                                                               *)

let test_unique_five_regions_ex2 () =
  let a = Solve.analyze_simple Loopir.Builtin.example2 in
  let three = Core.Threeset.compute ~phi:a.Solve.phi ~rd:a.Solve.rd in
  let u = Unique.partition a ~three in
  let n = Unique.n_regions u ~params:[| 12 |] in
  Alcotest.(check bool)
    (Printf.sprintf "got %d regions" n)
    true (n >= 3 && n <= 5);
  let sched = Unique.schedule u ~stmt:0 ~params:[| 12 |] in
  Alcotest.(check bool) "more phases than REC's 3" true
    (Sched.n_phases sched >= 3);
  let params = [ ("n", 12) ] in
  let tr = Trace.build Loopir.Builtin.example2 ~params in
  (match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m));
  let env = Interp.prepare Loopir.Builtin.example2 ~params in
  match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("semantics: " ^ m)

let test_unique_covers_space () =
  let a = Solve.analyze_simple Loopir.Builtin.example2 in
  let three = Core.Threeset.compute ~phi:a.Solve.phi ~rd:a.Solve.rd in
  let u = Unique.partition a ~three in
  let sched = Unique.schedule u ~stmt:0 ~params:[| 12 |] in
  Alcotest.(check int) "144 instances" 144 (Sched.n_instances sched)

(* ------------------------------------------------------------------ *)
(* DOACROSS                                                             *)

let test_doacross_serial_chain () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 9) ] in
  let r = Doacross.simulate tr ~threads:4 ~w_iter:1.0 ~sync:0.5 in
  (* 8 fully serial iterations across processors: every hop pays sync. *)
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.1f ≥ serial 8" r.Doacross.makespan)
    true
    (r.Doacross.makespan >= 8.0);
  Alcotest.(check (float 1e-9)) "busy" 8.0 r.Doacross.busy

let test_doacross_parallel_when_independent () =
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 8) ] in
  let r = Doacross.simulate tr ~threads:4 ~w_iter:1.0 ~sync:0.5 in
  Alcotest.(check (float 1e-9)) "perfectly parallel" 2.0 r.Doacross.makespan

let test_doacross_threads_help () =
  let tr =
    Trace.build Loopir.Builtin.example3 ~params:[ ("n", 12) ]
  in
  let m p = (Doacross.simulate tr ~threads:p ~w_iter:1.0 ~sync:0.5).Doacross.makespan in
  Alcotest.(check bool) "2 ≤ 1" true (m 2 <= m 1);
  Alcotest.(check bool) "4 ≤ 2" true (m 4 <= m 2)

(* ------------------------------------------------------------------ *)
(* Inner-loop parallelization                                           *)

let test_innerpar_legal_ex3 () =
  let params = [ ("n", 10) ] in
  let tr = Trace.build Loopir.Builtin.example3 ~params in
  let sched = Innerpar.schedule tr in
  (match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m));
  let env = Interp.prepare Loopir.Builtin.example3 ~params in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("semantics: " ^ m));
  (* Outer loop sequential: at least n phases. *)
  Alcotest.(check bool) "≥ n phases" true (Sched.n_phases sched >= 10)

let test_innerpar_wavefront_legal () =
  let prog = List.assoc "wavefront2d" Loopir.Builtin.corpus in
  let params = [ ("n", 7) ] in
  let tr = Trace.build prog ~params in
  let sched = Innerpar.schedule tr in
  match Sched.check_legal sched tr with
  | Ok () -> Alcotest.fail "wavefront rows are not independent"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Minimum-distance tiling                                              *)

let test_mindist_ex2_parallelism_4 () =
  (* Paper §5: minimum-distance tiling "theoretically speedups Example 2 by
     4 times" — tile shape 1×4. *)
  let a = Solve.analyze_simple Loopir.Builtin.example2 in
  let t = Mindist.of_simple a ~params:[| 12 |] in
  Alcotest.(check (option int)) "tile parallelism 4" (Some 4)
    (Mindist.tile_parallelism t);
  Alcotest.(check bool) "extent i = 1" true (t.Mindist.extents.(0) = Some 1);
  Alcotest.(check bool) "extent j = 4" true (t.Mindist.extents.(1) = Some 4)

let test_mindist_schedule_legal_semantic () =
  let check_prog prog params params_arr =
    let a = Solve.analyze_simple prog in
    let t = Mindist.of_simple a ~params:params_arr in
    let pts =
      Iset.points (Iset.bind_params a.Solve.phi params_arr)
    in
    let sched = Mindist.schedule t ~stmt:0 pts in
    let tr = Trace.build prog ~params in
    (match Sched.check_legal sched tr with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("legality: " ^ m));
    let env = Interp.prepare prog ~params in
    match Interp.check_schedule env sched with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("semantics: " ^ m)
  in
  check_prog Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |];
  check_prog Loopir.Builtin.example1 [ ("n1", 9); ("n2", 9) ] [| 9; 9 |];
  check_prog
    (List.assoc "coupled_mirror" Loopir.Builtin.corpus)
    [ ("n", 15) ] [| 15 |]

let test_mindist_unbounded_dim () =
  (* Dependences only along j: the i dimension is unbounded (whole-column
     parallelism). *)
  let prog =
    Loopir.Parser.parse ~name:"p"
      "DO i = 1, 8\n  DO j = 2, 8\n    a(i, j) = a(i, j - 1)\n  ENDDO\nENDDO"
  in
  let a = Solve.analyze_simple prog in
  let t = Mindist.of_simple a ~params:[||] in
  Alcotest.(check bool) "i unbounded" true (t.Mindist.extents.(0) = None);
  Alcotest.(check bool) "j extent 1" true (t.Mindist.extents.(1) = Some 1);
  Alcotest.(check (option int)) "no finite tile parallelism" None
    (Mindist.tile_parallelism t)

let () =
  Alcotest.run "baselines"
    [
      ( "pdm",
        [
          Alcotest.test_case "lattice (ex1)" `Quick test_pdm_lattice_ex1;
          Alcotest.test_case "cosets cover" `Quick test_pdm_cosets_cover;
          Alcotest.test_case "schedule legal+semantic" `Quick
            test_pdm_schedule_legal_and_semantic;
          Alcotest.test_case "zero column → parallel dim" `Quick
            test_pdm_outer_parallel_dim;
        ] );
      ( "pl",
        [ Alcotest.test_case "coarser than PDM" `Quick test_pl_coarser_than_pdm ] );
      ( "unique",
        [
          Alcotest.test_case "five regions (ex2)" `Quick
            test_unique_five_regions_ex2;
          Alcotest.test_case "covers space" `Quick test_unique_covers_space;
        ] );
      ( "doacross",
        [
          Alcotest.test_case "serial chain" `Quick test_doacross_serial_chain;
          Alcotest.test_case "independent iterations" `Quick
            test_doacross_parallel_when_independent;
          Alcotest.test_case "threads help" `Quick test_doacross_threads_help;
        ] );
      ( "mindist",
        [
          Alcotest.test_case "example 2 parallelism 4 (paper)" `Quick
            test_mindist_ex2_parallelism_4;
          Alcotest.test_case "legal + semantic" `Quick
            test_mindist_schedule_legal_semantic;
          Alcotest.test_case "unbounded dimension" `Quick
            test_mindist_unbounded_dim;
        ] );
      ( "innerpar",
        [
          Alcotest.test_case "legal on example 3" `Quick test_innerpar_legal_ex3;
          Alcotest.test_case "illegal on wavefront" `Quick
            test_innerpar_wavefront_legal;
        ] );
    ]
