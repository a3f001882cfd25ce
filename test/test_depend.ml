(* Tests for dependence analysis: exact relations on the paper's examples,
   uniformity classification, trace-based graphs. *)

module Solve = Depend.Solve
module Depeq = Depend.Depeq
module Distance = Depend.Distance
module Trace = Depend.Trace
module Graph = Depend.Graph
module Space = Depend.Space
module Rel = Presburger.Rel
module Iset = Presburger.Iset
module Ivec = Linalg.Ivec

let ivec = Alcotest.testable Ivec.pp Ivec.equal
let _ = ivec

(* ------------------------------------------------------------------ *)
(* Example 1 (paper Figure 1)                                           *)

let test_example1_distances () =
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  let ds = Distance.distances a.Solve.rd ~params:[| 10; 10 |] in
  Alcotest.(check int) "three distinct distances" 3 (List.length ds);
  Alcotest.(check bool) "(2,2)" true
    (List.exists (Ivec.equal [| 2; 2 |]) ds);
  Alcotest.(check bool) "(4,4)" true
    (List.exists (Ivec.equal [| 4; 4 |]) ds);
  Alcotest.(check bool) "(6,6)" true
    (List.exists (Ivec.equal [| 6; 6 |]) ds)

let test_example1_pair_count () =
  (* Figure 1 shows 8 arrows of distance (2,2), 6 of (4,4), 4 of (6,6). *)
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  let set = Iset.bind_params (Rel.to_set a.Solve.rd) [| 10; 10 |] in
  Alcotest.(check int) "18 direct dependences" 18 (List.length (Iset.points set))

let test_example1_classify () =
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  Alcotest.(check string) "non-uniform" "non-uniform"
    (Distance.class_to_string
       (Distance.classify a.Solve.rd ~phi:a.Solve.phi ~params:[| 10; 10 |]))

let test_example1_pair_matrices () =
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  match a.Solve.pair with
  | None -> Alcotest.fail "coupled pair expected"
  | Some p ->
      Alcotest.(check bool) "A" true
        (Linalg.Imat.equal p.Depeq.a_mat [| [| 3; 2 |]; [| 0; 1 |] |]);
      Alcotest.(check bool) "B" true
        (Linalg.Imat.equal p.Depeq.b_mat [| [| 1; 0 |]; [| 0; 1 |] |]);
      Alcotest.(check int) "det A" 3 (Depeq.det_a p);
      Alcotest.(check int) "det B" 1 (Depeq.det_b p);
      Alcotest.(check bool) "full rank" true (Depeq.full_rank p);
      (* offsets a = (1,-1), b = (3,1) *)
      Alcotest.(check int) "a1" 1 p.Depeq.a_off.(0).Loopir.Affine.const;
      Alcotest.(check int) "a2" (-1) p.Depeq.a_off.(1).Loopir.Affine.const;
      Alcotest.(check int) "b1" 3 p.Depeq.b_off.(0).Loopir.Affine.const;
      Alcotest.(check int) "b2" 1 p.Depeq.b_off.(1).Loopir.Affine.const

(* ------------------------------------------------------------------ *)
(* Figure 2                                                             *)

let test_fig2_sets () =
  let a = Solve.analyze_simple Loopir.Builtin.fig2 in
  let dom = Iset.points (Rel.dom a.Solve.rd) |> List.map (fun v -> v.(0)) in
  let ran = Iset.points (Rel.ran a.Solve.rd) |> List.map (fun v -> v.(0)) in
  Alcotest.(check (list int)) "dom = initial candidates" [ 1; 2; 3; 4; 5; 6 ] dom;
  Alcotest.(check (list int)) "ran" [ 8; 9; 10; 11; 13; 15; 17; 19 ] ran

let test_fig2_pair () =
  let a = Solve.analyze_simple Loopir.Builtin.fig2 in
  match a.Solve.pair with
  | None -> Alcotest.fail "pair expected"
  | Some p ->
      Alcotest.(check int) "A = [2]" 2 (Linalg.Imat.get p.Depeq.a_mat 0 0);
      Alcotest.(check int) "B = [-1]" (-1) (Linalg.Imat.get p.Depeq.b_mat 0 0);
      Alcotest.(check int) "b offset 21" 21 p.Depeq.b_off.(0).Loopir.Affine.const

let test_fig2_param_pair () =
  let a = Solve.analyze_simple Loopir.Builtin.fig2_param in
  match a.Solve.pair with
  | None -> Alcotest.fail "pair expected"
  | Some p ->
      (* read offset 2m+1 is parametric *)
      Alcotest.(check int) "m coeff" 2
        (Loopir.Affine.coeff p.Depeq.b_off.(0) "m");
      Alcotest.(check int) "const 1" 1 p.Depeq.b_off.(0).Loopir.Affine.const

(* ------------------------------------------------------------------ *)
(* Example 2                                                            *)

let test_example2_pair () =
  let a = Solve.analyze_simple Loopir.Builtin.example2 in
  match a.Solve.pair with
  | None -> Alcotest.fail "pair expected"
  | Some p ->
      Alcotest.(check bool) "A" true
        (Linalg.Imat.equal p.Depeq.a_mat [| [| 2; 0 |]; [| 0; 1 |] |]);
      Alcotest.(check bool) "B" true
        (Linalg.Imat.equal p.Depeq.b_mat [| [| 1; 1 |]; [| 2; 1 |] |]);
      Alcotest.(check int) "det B = -1" (-1) (Depeq.det_b p)

let test_example2_nonuniform () =
  let a = Solve.analyze_simple Loopir.Builtin.example2 in
  Alcotest.(check string) "non-uniform" "non-uniform"
    (Distance.class_to_string
       (Distance.classify a.Solve.rd ~phi:a.Solve.phi ~params:[| 12 |]))

(* ------------------------------------------------------------------ *)
(* Corpus classification                                                *)

let classify_one prog params =
  let a = Solve.analyze_simple prog in
  Distance.classify a.Solve.rd ~phi:a.Solve.phi ~params

let test_corpus_classes () =
  let find name = List.assoc name Loopir.Builtin.corpus in
  let check name params expected =
    Alcotest.(check string)
      name expected
      (Distance.class_to_string (classify_one (find name) params))
  in
  check "vecadd" [| 8 |] "none";
  check "transpose_copy" [| 6 |] "none";
  check "prefix_sum" [| 8 |] "uniform";
  check "stencil1d" [| 8 |] "uniform";
  check "wavefront2d" [| 6 |] "uniform";
  check "uniform_diag" [| 6 |] "uniform";
  check "coupled_stretch" [| 10 |] "non-uniform";
  check "coupled_mirror" [| 10 |] "non-uniform";
  check "coupled_skew2d" [| 6 |] "non-uniform";
  check "reverse_copy" [| 9 |] "none"

let test_coupled_detection () =
  let stmt_of p = List.hd (Loopir.Prog.stmts_of p) in
  Alcotest.(check bool) "example1 coupled" true
    (Distance.has_coupled_subscripts (stmt_of Loopir.Builtin.example1));
  Alcotest.(check bool) "example2 coupled" true
    (Distance.has_coupled_subscripts (stmt_of Loopir.Builtin.example2));
  Alcotest.(check bool) "vecadd not coupled" false
    (Distance.has_coupled_subscripts
       (stmt_of (List.assoc "vecadd" Loopir.Builtin.corpus)));
  Alcotest.(check bool) "wavefront2d not coupled" false
    (Distance.has_coupled_subscripts
       (stmt_of (List.assoc "wavefront2d" Loopir.Builtin.corpus)))

(* ------------------------------------------------------------------ *)
(* Unified statement-level space (example 3)                            *)

let test_unified_space_example3 () =
  let u, phi = Space.unified_space Loopir.Builtin.example3 in
  Alcotest.(check int) "depth 3" 3 u.Space.depth;
  Alcotest.(check int) "7 unified dims" 7 (Array.length u.Space.dims);
  Alcotest.(check int) "two disjuncts" 2 (List.length (Iset.polys phi));
  (* At n = 3: S1 instances: Σ_i Σ_{j≤i} (i-j+1) = 10; S2: Σ_i i = 6. *)
  let pts = Iset.points (Iset.bind_params phi [| 3 |]) in
  Alcotest.(check int) "16 instances at n=3" 16 (List.length pts)

let test_unified_vector () =
  let u, _ = Space.unified_space Loopir.Builtin.example3 in
  let infos = Loopir.Prog.stmts_of Loopir.Builtin.example3 in
  let s1 = List.nth infos 0 and s2 = List.nth infos 1 in
  Alcotest.(check (array int)) "S1(2,1,2)"
    [| 1; 2; 1; 1; 1; 2; 1 |]
    (Space.unified_vector_of u s1 ~iter:[| 2; 1; 2 |]);
  Alcotest.(check (array int)) "S2(2,1)"
    [| 1; 2; 1; 1; 2; 0; 0 |]
    (Space.unified_vector_of u s2 ~iter:[| 2; 1 |])

let test_unified_rd_example3 () =
  let a = Solve.analyze_unified Loopir.Builtin.example3 in
  Alcotest.(check bool) "has dependences" false (Rel.is_empty a.Solve.urd);
  (* The paper's analysis: every dependence goes from an S2 write to an S1
     read (flow) or S1 read to S2 write (anti) on array a. *)
  let dom = Rel.dom a.Solve.urd and ran = Rel.ran a.Solve.urd in
  Alcotest.(check bool) "dom nonempty" false (Iset.is_empty dom);
  Alcotest.(check bool) "ran nonempty" false (Iset.is_empty ran)

(* ------------------------------------------------------------------ *)
(* Trace-based graphs                                                   *)

let test_trace_prefix_sum () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 5) ] in
  Alcotest.(check int) "4 instances" 4 (Array.length tr.Trace.instances);
  let g = Graph.of_trace tr in
  Alcotest.(check int) "serial chain: 4 levels" 4 g.Graph.n_levels;
  Alcotest.(check (array int)) "one per level" [| 1; 1; 1; 1 |]
    g.Graph.level_sizes

let test_trace_vecadd () =
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 6) ] in
  Alcotest.(check int) "no edges" 0 (Trace.n_edges tr);
  let g = Graph.of_trace tr in
  Alcotest.(check int) "fully parallel" 1 g.Graph.n_levels

let test_trace_wavefront () =
  let prog = List.assoc "wavefront2d" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 5) ] in
  let g = Graph.of_trace tr in
  (* 4×4 wavefront: levels = 2·4 - 1 = 7 diagonals. *)
  Alcotest.(check int) "7 wavefronts" 7 g.Graph.n_levels;
  Alcotest.(check (array int)) "diagonal sizes"
    [| 1; 2; 3; 4; 3; 2; 1 |]
    g.Graph.level_sizes

let test_trace_fig2 () =
  let tr = Trace.build Loopir.Builtin.fig2 ~params:[] in
  Alcotest.(check int) "20 instances" 20 (Array.length tr.Trace.instances);
  let g = Graph.of_trace tr in
  (* Monotonic chains have length ≤ 2: P1 then P3. *)
  Alcotest.(check int) "2 levels" 2 g.Graph.n_levels;
  Alcotest.(check (array int)) "12 + 8" [| 12; 8 |] g.Graph.level_sizes

let test_trace_negative_step () =
  (* Reversed loop writing a chain: still a serial dependence chain. *)
  let prog =
    Loopir.Parser.parse ~name:"rev"
      "DO k = n, 2, -1\n  s(k - 1) = s(k) + 1.0\nENDDO"
  in
  let tr = Trace.build prog ~params:[ ("n", 6) ] in
  let g = Graph.of_trace tr in
  Alcotest.(check int) "5 instances" 5 (Array.length tr.Trace.instances);
  Alcotest.(check int) "serial" 5 g.Graph.n_levels

let test_graph_levels_direct () =
  let g = Graph.levels ~n:5 [ (0, 2); (1, 2); (2, 4); (3, 4) ] in
  Alcotest.(check int) "3 levels" 3 g.Graph.n_levels;
  (* Nodes 0, 1, 3 have no predecessors; 2 is level 2; 4 is level 3. *)
  Alcotest.(check (array int)) "sizes" [| 3; 1; 1 |] g.Graph.level_sizes;
  Alcotest.(check int) "level of 4" 3 g.Graph.level.(4);
  match Graph.levels ~n:2 [ (1, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "backward edge should be rejected"

(* ------------------------------------------------------------------ *)
(* Classical dependence tests                                           *)

module Dtests = Depend.Dtests

let test_gcd_test () =
  (* 2i - 2j + 1 = 0: gcd 2 does not divide 1 → independent. *)
  let eq =
    { Dtests.a = [| 2 |]; b = [| 2 |]; c = 1; lo = [| 1 |]; hi = [| 100 |] }
  in
  Alcotest.(check bool) "gcd independent" true
    (Dtests.gcd_test eq = Dtests.Independent);
  (* 2i - j = 0 is satisfiable. *)
  let eq2 =
    { Dtests.a = [| 2 |]; b = [| 1 |]; c = 0; lo = [| 1 |]; hi = [| 100 |] }
  in
  Alcotest.(check bool) "gcd maybe" true
    (Dtests.gcd_test eq2 = Dtests.Maybe_dependent)

let test_banerjee_test () =
  (* i - j + 200 = 0 with 1 ≤ i,j ≤ 100: range of i - j is [-99, 99],
     -200 outside → independent (the GCD test cannot see this). *)
  let eq =
    { Dtests.a = [| 1 |]; b = [| 1 |]; c = 200; lo = [| 1 |]; hi = [| 100 |] }
  in
  Alcotest.(check bool) "gcd is fooled" true
    (Dtests.gcd_test eq = Dtests.Maybe_dependent);
  Alcotest.(check bool) "banerjee catches it" true
    (Dtests.banerjee_test eq = Dtests.Independent);
  Alcotest.(check bool) "exact agrees" true (Dtests.exact eq = Dtests.Independent)

let test_dtests_on_example1 () =
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  match a.Solve.pair with
  | Some p ->
      let eqs =
        Dtests.equations_of_pair p
          ~params:(fun _ -> 10)
          ~lo:[| 1; 1 |] ~hi:[| 10; 10 |]
      in
      Alcotest.(check int) "two equations" 2 (List.length eqs);
      (* Example 1 has real dependences: no test may claim independence. *)
      List.iter
        (fun eq ->
          Alcotest.(check bool) "combined conservative" true
            (Dtests.combined eq = Dtests.Maybe_dependent))
        eqs
  | None -> Alcotest.fail "pair expected"

let gen_equation =
  QCheck2.Gen.(
    let coef = int_range (-4) 4 in
    let* m = int_range 1 3 in
    let* a = array_size (pure m) coef in
    let* b = array_size (pure m) coef in
    let* c = int_range (-30) 30 in
    let* hi = array_size (pure m) (int_range 1 8) in
    pure { Dtests.a; b; c; lo = Array.make m 1; hi })

let prop_dtests_conservative =
  QCheck2.Test.make ~name:"GCD/Banerjee never contradict the exact test"
    ~count:400 gen_equation (fun eq ->
      (* The exact test can exhaust Omega's emptiness budget on adversarial
         random coefficients; that is inconclusive, not a contradiction. *)
      match Dtests.exact eq with
      | exception Presburger.Omega.Blowup _ -> true
      | ex -> (
          match (Dtests.gcd_test eq, Dtests.banerjee_test eq) with
          | Dtests.Independent, _ -> ex = Dtests.Independent
          | _, Dtests.Independent -> ex = Dtests.Independent
          | Dtests.Maybe_dependent, Dtests.Maybe_dependent -> true))

(* ------------------------------------------------------------------ *)
(* Distance sets vs the pair-enumeration oracle                         *)

(* The oracle enumerates every pair of Rd at the bound parameters — what
   [Distance] did before it read the distances off Rd's delta set. *)
let oracle_pairs rd ~params =
  let set = Iset.bind_params (Rel.to_set rd) params in
  let m = Iset.dim set / 2 in
  List.map
    (fun xy -> (Array.sub xy 0 m, Array.sub xy m m))
    (Iset.points set)

let oracle_distances rd ~params =
  oracle_pairs rd ~params
  |> List.map (fun (i, j) -> Ivec.sub j i)
  |> List.sort_uniq Ivec.compare_lex

let oracle_classify rd ~phi ~params =
  match oracle_pairs rd ~params with
  | [] -> Distance.No_dependence
  | pairs ->
      let pair_set = Hashtbl.create 64 in
      List.iter (fun p -> Hashtbl.replace pair_set p ()) pairs;
      let phi_pts = Iset.points (Iset.bind_params phi params) in
      let in_phi = Hashtbl.create 64 in
      List.iter (fun i -> Hashtbl.replace in_phi i ()) phi_pts;
      let uniform =
        List.for_all
          (fun d ->
            List.for_all
              (fun i ->
                let j = Ivec.add i d in
                (not (Hashtbl.mem in_phi j)) || Hashtbl.mem pair_set (i, j))
              phi_pts)
          (oracle_distances rd ~params)
      in
      if uniform then Distance.Uniform else Distance.Non_uniform

let single_statement_builtins =
  List.filter_map
    (fun (name, prog) ->
      match Solve.analyze_simple prog with
      | a -> Some (name, a)
      | exception _ -> None)
    Loopir.Builtin.all

let ivecs = Alcotest.(list (array int))

let test_distances_match_oracle () =
  Alcotest.(check bool)
    "several single-statement builtins" true
    (List.length single_statement_builtins >= 10);
  List.iter
    (fun (name, a) ->
      List.iter
        (fun n ->
          let params = Array.map (fun _ -> n) a.Solve.params in
          Alcotest.check ivecs
            (Printf.sprintf "%s n=%d" name n)
            (oracle_distances a.Solve.rd ~params)
            (Distance.distances a.Solve.rd ~params))
        [ 4; 8; 16 ])
    single_statement_builtins

let test_distances_match_oracle_paper_sizes () =
  List.iter
    (fun (prog, params) ->
      let a = Solve.analyze_simple prog in
      let expected = oracle_distances a.Solve.rd ~params in
      Alcotest.check ivecs
        (Printf.sprintf "%s at %s" prog.Loopir.Ast.name
           (String.concat "x" (Array.to_list (Array.map string_of_int params))))
        expected
        (Distance.distances a.Solve.rd ~params))
    [
      (Loopir.Builtin.example1, [| 200; 300 |]);
      (Loopir.Builtin.example2, [| 180 |]);
    ]

let test_classify_matches_oracle () =
  List.iter
    (fun (name, a) ->
      List.iter
        (fun n ->
          let params = Array.map (fun _ -> n) a.Solve.params in
          Alcotest.(check string)
            (Printf.sprintf "%s n=%d" name n)
            (Distance.class_to_string
               (oracle_classify a.Solve.rd ~phi:a.Solve.phi ~params))
            (Distance.class_to_string
               (Distance.classify a.Solve.rd ~phi:a.Solve.phi ~params)))
        [ 4; 8; 16 ])
    single_statement_builtins

(* Shrunk by the random-nest property below: projecting i, j, k out of the
   sheared system in Omega.project_out's fixed order needs 1,759 splinters
   for one lower bound and raises Blowup, while the pair oracle succeeds.
   Choosing the cheapest variable per disjunct projects it exactly. *)
let test_distances_splinter_regression () =
  let prog =
    Loopir.Parser.parse ~name:"splinter"
      "DO i = 1, 3\n\
       DO j = 1, 3\n\
       DO k = 1, 3\n\
       a(2*i + 0*j + 2*k + 0, 0*i + 0*j + 3*k + 0) = a(0*i + 3*j + -2*k + 0, \
       0*i + 1*j + -2*k + 3)\n\
       ENDDO\nENDDO\nENDDO\n"
  in
  let a = Solve.analyze_simple prog in
  Alcotest.check ivecs "distances = oracle"
    (oracle_distances a.Solve.rd ~params:[||])
    (Distance.distances a.Solve.rd ~params:[||])

(* Random coupled nests of depth 2 and 3: each subscript is [Σ c·v + off]
   with c ∈ −2..3 and off ∈ 0..6, the array has rank 2..depth, and the
   bound n ∈ 3..8 is either a literal or the symbolic parameter [n], so the
   delta set is projected both ways.  Whenever the pair oracle succeeds,
   the delta-set distances must equal it; a Blowup on the delta side alone
   is a failure. *)
type coupled_nest = {
  write : (int array * int) array;
  read : (int array * int) array;
  n : int;
  symbolic : bool;
}

let gen_coupled_nest depth =
  QCheck2.Gen.(
    let coefs = array_size (pure depth) (int_range (-2) 3) in
    let sub = pair coefs (int_range 0 6) in
    let* rank = int_range 2 depth in
    let* write = array_size (pure rank) sub in
    let* read = array_size (pure rank) sub in
    let* n = int_range 3 8 in
    let* symbolic = bool in
    pure { write; read; n; symbolic })

let coupled_nest_source t =
  let depth = Array.length (fst t.write.(0)) in
  let idx = [| "i"; "j"; "k" |] in
  let sub (cs, off) =
    String.concat " + "
      (Array.to_list
         (Array.mapi (fun v c -> Printf.sprintf "%d*%s" c idx.(v)) cs))
    ^ Printf.sprintf " + %d" off
  in
  let refs side = String.concat ", " (Array.to_list (Array.map sub side)) in
  let hi = if t.symbolic then "n" else string_of_int t.n in
  String.concat ""
    (List.init depth (fun v -> Printf.sprintf "DO %s = 1, %s\n" idx.(v) hi))
  ^ Printf.sprintf "a(%s) = a(%s)\n" (refs t.write) (refs t.read)
  ^ String.concat "" (List.init depth (fun _ -> "ENDDO\n"))

let distances_match_oracle t =
  let prog = Loopir.Parser.parse ~name:"rand-nest" (coupled_nest_source t) in
  match Solve.analyze_simple prog with
  | exception Presburger.Omega.Blowup _ -> true
  | a -> (
      let params = if t.symbolic then [| t.n |] else [||] in
      let attempt f =
        match f () with
        | v -> Ok v
        | exception Presburger.Omega.Blowup m -> Error m
      in
      match
        ( attempt (fun () -> oracle_distances a.Solve.rd ~params),
          attempt (fun () -> Distance.distances a.Solve.rd ~params) )
      with
      | Ok expected, Ok got -> expected = got
      | Ok _, Error _ -> false
      | Error _, _ -> true)

let prop_random_distances depth ~count =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "distances = pair oracle on random %d-D coupled nests"
         depth)
    ~count
    ~print:(fun t ->
      Printf.sprintf "%s(n = %d)" (coupled_nest_source t) t.n)
    (gen_coupled_nest depth) distances_match_oracle

(* ------------------------------------------------------------------ *)
(* Trace builder against its reference                                  *)

(* The builder as it was before it was compiled, kept verbatim as the
   oracle: a walk over the AST through an environment closure per loop,
   every cell keyed by (array, subscript list) in a polymorphic Hashtbl.
   [Trace.build] must equal it instance for instance and edge for edge, in
   order. *)
type ebuf = { mutable src : int array; mutable dst : int array; mutable len : int }

let ebuf_make () = { src = Array.make 1024 0; dst = Array.make 1024 0; len = 0 }

let ebuf_push b s d =
  if b.len = Array.length b.src then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    b.src <- grow b.src;
    b.dst <- grow b.dst
  end;
  b.src.(b.len) <- s;
  b.dst.(b.len) <- d;
  b.len <- b.len + 1

type cell = { mutable last_write : int; mutable readers : int list }

let reference_trace prog ~params =
  let module Ast = Loopir.Ast in
  let prog = Loopir.Normalize.unit_strides prog in
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        Diag.fail (Diag.Unbound_parameter p))
    prog.Ast.params;
  let next_static = ref 0 in
  let rec annotate = function
    | Ast.Assign (lhs, rhs) ->
        let id = !next_static in
        incr next_static;
        `Assign (id, lhs, rhs)
    | Ast.Loop l -> `Loop (l, List.map annotate l.Ast.body)
  in
  let annotated = List.map annotate prog.Ast.body in
  let cells : (string * int list, cell) Hashtbl.t = Hashtbl.create 4096 in
  let instances = ref [] in
  let n_inst = ref 0 in
  let eb = ebuf_make () in
  let add_edge src dst = if src <> dst then ebuf_push eb src dst in
  let cell_of key =
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        let c = { last_write = -1; readers = [] } in
        Hashtbl.add cells key c;
        c
  in
  let read inst key =
    let c = cell_of key in
    if c.last_write >= 0 then add_edge c.last_write inst;
    c.readers <- inst :: c.readers
  in
  let write inst key =
    let c = cell_of key in
    if c.last_write >= 0 then add_edge c.last_write inst;
    List.iter (fun r -> add_edge r inst) c.readers;
    c.readers <- [];
    c.last_write <- inst
  in
  let rec record_reads env inst = function
    | Ast.Int _ | Ast.Real _ | Ast.Var _ -> ()
    | Ast.Ref (a, subs) ->
        List.iter (record_reads env inst) subs;
        read inst (a, List.map (Loopir.Eval_int.eval env) subs)
    | Ast.Bin (_, a, b) | Ast.Mod (a, b) ->
        record_reads env inst a;
        record_reads env inst b
    | Ast.Un (_, a) | Ast.Pow (a, _) -> record_reads env inst a
    | Ast.Min es | Ast.Max es -> List.iter (record_reads env inst) es
  in
  let rec run env iter_stack = function
    | `Assign (stmt, (a, subs), rhs) ->
        let inst = !n_inst in
        incr n_inst;
        instances :=
          { Trace.inst; stmt; iter = Array.of_list (List.rev iter_stack) }
          :: !instances;
        record_reads env inst rhs;
        write inst (a, List.map (Loopir.Eval_int.eval env) subs)
    | `Loop (l, body) ->
        let lo = Loopir.Eval_int.eval env l.Ast.lo
        and hi = Loopir.Eval_int.eval env l.Ast.hi in
        for v = lo to hi do
          let env' name = if name = l.Ast.index then v else env name in
          List.iter (run env' (v :: iter_stack)) body
        done
  in
  let env0 name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> Diag.fail (Diag.Unbound_variable name)
  in
  List.iter (run env0 []) annotated;
  {
    Trace.instances = Array.of_list (List.rev !instances);
    edge_src = Array.sub eb.src 0 eb.len;
    edge_dst = Array.sub eb.dst 0 eb.len;
  }

(* Both builders on one program: the same trace, or the same exception. *)
let trace_outcome build prog ~params =
  match build prog ~params with
  | tr -> Ok tr
  | exception e -> Error (Printexc.to_string e)

let same_trace prog ~params =
  match
    ( trace_outcome Trace.build prog ~params,
      trace_outcome reference_trace prog ~params )
  with
  | Ok a, Ok b ->
      a.Trace.instances = b.Trace.instances
      && a.Trace.edge_src = b.Trace.edge_src
      && a.Trace.edge_dst = b.Trace.edge_dst
  | Error a, Error b -> a = b
  | _ -> false

let check_same_trace name prog ~params =
  (match
     ( trace_outcome Trace.build prog ~params,
       trace_outcome reference_trace prog ~params )
   with
  | Ok a, Ok b ->
      Alcotest.(check int)
        (name ^ ": instances")
        (Array.length b.Trace.instances)
        (Array.length a.Trace.instances);
      Alcotest.(check int) (name ^ ": edges") (Trace.n_edges b) (Trace.n_edges a)
  | _, Error e -> Alcotest.failf "%s: reference raised %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: build raised %s" name e);
  Alcotest.(check bool) (name ^ ": identical") true (same_trace prog ~params)

let test_trace_matches_reference_builtins () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun v ->
          let params = List.map (fun p -> (p, v)) prog.Loopir.Ast.params in
          check_same_trace (Printf.sprintf "%s@%d" name v) prog ~params)
        [ 1; 2; 3; 5; 8; 13 ])
    Loopir.Builtin.all

let parse_nest src = Loopir.Parser.parse ~name:"nest" src

let test_trace_reference_hand_cases () =
  check_same_trace "negative step, MIN/MAX bounds"
    (parse_nest
       "DO i = n, 1, -2\n\
       \  DO j = MAX(1, i - 3), MIN(n, i + 2)\n\
       \    a(i + j) = a(i - j + 5) + a(MIN(i, j)) * a(i + j)\n\
       \  ENDDO\n\
        ENDDO")
    ~params:[ ("n", 9) ];
  (* a(i) and a(i, 1) are different cells: the ranks never alias. *)
  let ranks = parse_nest "DO i = 1, n\n  a(i) = a(i, 1) + 1\nENDDO" in
  check_same_trace "ranks kept apart" ranks ~params:[ ("n", 4) ];
  Alcotest.(check int) "no edge across ranks" 0
    (Trace.n_edges (Trace.build ranks ~params:[ ("n", 4) ]));
  (* [q] is left out of the declared parameters, so only evaluating the
     subscript can notice it. *)
  let undeclared src = { (parse_nest src) with Loopir.Ast.params = [] } in
  let dead = undeclared "DO i = 1, 0\n  a(i + q) = a(i) + 1\nENDDO" in
  check_same_trace "unbound variable in a loop that never runs" dead
    ~params:[];
  Alcotest.(check int) "no instances" 0
    (Array.length (Trace.build dead ~params:[]).Trace.instances);
  let raises name prog ~params expected =
    match Trace.build prog ~params with
    | _ -> Alcotest.failf "%s: no exception" name
    | exception e ->
        if not (expected e) then
          Alcotest.failf "%s: unexpected %s" name (Printexc.to_string e);
        Alcotest.(check (result reject string))
          (name ^ ": reference raises the same")
          (Error (Printexc.to_string e))
          (Result.map (fun _ -> ()) (trace_outcome reference_trace prog ~params))
  in
  raises "unbound variable"
    (undeclared "DO i = 1, 3\n  a(i + q) = a(i) + 1\nENDDO")
    ~params:[]
    (function Diag.Error (Diag.Unbound_variable "q") -> true | _ -> false);
  raises "real-valued subscript"
    (parse_nest "DO i = 1, 3\n  a(i) = a(i * 1.5) + 1\nENDDO")
    ~params:[]
    (function Loopir.Eval_int.Not_integer _ -> true | _ -> false);
  raises "overflowing subscript product"
    (parse_nest "DO i = 1, 3\n  a(p * p * i) = a(i) + 1\nENDDO")
    ~params:[ ("p", 1 lsl 40) ]
    (function Numeric.Safeint.Overflow -> true | _ -> false);
  (* Subscripts evaluate left to right: the first failing one wins. *)
  raises "first failing subscript"
    (undeclared "DO i = 1, 3\n  a(i) = a(i + q, i / 0) + 1\nENDDO")
    ~params:[]
    (function Diag.Error (Diag.Unbound_variable "q") -> true | _ -> false)

let prop_trace_matches_reference depth ~count =
  QCheck2.Test.make
    ~name:(Printf.sprintf "build = reference on random %d-D coupled nests" depth)
    ~count
    ~print:(fun t -> Printf.sprintf "%s(n = %d)" (coupled_nest_source t) t.n)
    (gen_coupled_nest depth)
    (fun t ->
      let prog = Loopir.Parser.parse ~name:"rand-nest" (coupled_nest_source t) in
      same_trace prog ~params:(if t.symbolic then [ ("n", t.n) ] else []))

let prop_trace_matches_reference_imperfect ~count =
  QCheck2.Test.make ~name:"build = reference on random imperfect nests" ~count
    ~print:(fun seed ->
      Loopir.Pretty.program_to_string
        (Nests.random_nest (Random.State.make [| seed |])))
    QCheck2.Gen.int
    (fun seed ->
      same_trace (Nests.random_nest (Random.State.make [| seed |])) ~params:[])

(* Cells are keyed by the subscripts actually touched: three cells a
   hundred million apart cost three cells, not an array over the extent.
   Words are counted with [Gc.counters], which is exact on OCaml 5;
   [Gc.quick_stat] credits minor and direct major allocations only at the
   next collection and would read 0 here. *)
let test_trace_sparse_subscripts () =
  let prog =
    parse_nest
      "DO i = 1, 3\n\
      \  a(100000000*i) = a(100000000*i - 100000000) + 1\n\
      \  b(i) = a(100000000*i)\n\
       ENDDO"
  in
  let minor0, promoted0, major0 = Gc.counters () in
  let tr = Trace.build prog ~params:[] in
  let minor1, promoted1, major1 = Gc.counters () in
  let words =
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  Alcotest.(check int) "6 instances" 6 (Array.length tr.Trace.instances);
  if words >= 100_000.0 then
    Alcotest.failf "Trace.build allocated %.0f words (limit 100000)" words

let () =
  Alcotest.run "depend"
    [
      ( "example1",
        [
          Alcotest.test_case "fig.1 distances" `Quick test_example1_distances;
          Alcotest.test_case "fig.1 arrow count" `Quick test_example1_pair_count;
          Alcotest.test_case "classification" `Quick test_example1_classify;
          Alcotest.test_case "A/B matrices" `Quick test_example1_pair_matrices;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "dom/ran" `Quick test_fig2_sets;
          Alcotest.test_case "pair" `Quick test_fig2_pair;
          Alcotest.test_case "parametric offsets" `Quick test_fig2_param_pair;
        ] );
      ( "example2",
        [
          Alcotest.test_case "A/B matrices" `Quick test_example2_pair;
          Alcotest.test_case "non-uniform" `Quick test_example2_nonuniform;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "classification" `Quick test_corpus_classes;
          Alcotest.test_case "coupled detection" `Quick test_coupled_detection;
        ] );
      ( "distance",
        [
          Alcotest.test_case "distances = pair oracle (builtins)" `Quick
            test_distances_match_oracle;
          Alcotest.test_case "distances = pair oracle (paper sizes)" `Quick
            test_distances_match_oracle_paper_sizes;
          Alcotest.test_case "classify = pair oracle (builtins)" `Quick
            test_classify_matches_oracle;
          Alcotest.test_case "splinter-heavy 3-D nest (shrunk)" `Quick
            test_distances_splinter_regression;
          QCheck_alcotest.to_alcotest (prop_random_distances 2 ~count:100);
          QCheck_alcotest.to_alcotest (prop_random_distances 3 ~count:15);
        ] );
      ( "unified",
        [
          Alcotest.test_case "space (example 3)" `Quick
            test_unified_space_example3;
          Alcotest.test_case "vectors" `Quick test_unified_vector;
          Alcotest.test_case "statement-level Rd" `Quick
            test_unified_rd_example3;
        ] );
      ( "dtests",
        [
          Alcotest.test_case "GCD test" `Quick test_gcd_test;
          Alcotest.test_case "Banerjee test" `Quick test_banerjee_test;
          Alcotest.test_case "example 1 equations" `Quick
            test_dtests_on_example1;
          QCheck_alcotest.to_alcotest prop_dtests_conservative;
        ] );
      ( "trace",
        [
          Alcotest.test_case "prefix sum chain" `Quick test_trace_prefix_sum;
          Alcotest.test_case "vecadd parallel" `Quick test_trace_vecadd;
          Alcotest.test_case "wavefront diagonals" `Quick test_trace_wavefront;
          Alcotest.test_case "fig2 two levels" `Quick test_trace_fig2;
          Alcotest.test_case "negative step" `Quick test_trace_negative_step;
          Alcotest.test_case "direct DAG" `Quick test_graph_levels_direct;
          Alcotest.test_case "build = reference (builtins, 6 sizes)" `Quick
            test_trace_matches_reference_builtins;
          Alcotest.test_case "build = reference (hand cases)" `Quick
            test_trace_reference_hand_cases;
          QCheck_alcotest.to_alcotest (prop_trace_matches_reference 2 ~count:100);
          QCheck_alcotest.to_alcotest (prop_trace_matches_reference 3 ~count:50);
          Alcotest.test_case "sparse subscripts stay cheap" `Quick
            test_trace_sparse_subscripts;
          QCheck_alcotest.to_alcotest
            (prop_trace_matches_reference_imperfect ~count:300);
        ] );
    ]
