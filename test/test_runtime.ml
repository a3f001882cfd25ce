(* Tests for the execution substrate: dense array store, interpreter,
   schedules (legality + semantics), cost simulator, domain executor. *)

module Sched = Runtime.Sched
module Interp = Runtime.Interp
module Arrays = Runtime.Arrays
module Sim = Runtime.Sim
module Exec = Runtime.Exec
module Trace = Depend.Trace
module Partition = Core.Partition
module Dataflow = Core.Dataflow

(* ------------------------------------------------------------------ *)
(* Arrays                                                               *)

let test_arrays_basic () =
  let s = Arrays.create () in
  Arrays.note_bounds s "a" [ -3; 2 ];
  Arrays.note_bounds s "a" [ 5; 7 ];
  Arrays.freeze s;
  Alcotest.(check (float 0.0))
    "initial value deterministic"
    (Arrays.initial_value "a" [ 0; 3 ])
    (Arrays.get s "a" [ 0; 3 ]);
  Arrays.set s "a" [ -3; 7 ] 42.0;
  Alcotest.(check (float 0.0)) "set/get" 42.0 (Arrays.get s "a" [ -3; 7 ]);
  (* out-of-extent read falls back to the deterministic initial value *)
  Alcotest.(check (float 0.0))
    "out-of-extent read"
    (Arrays.initial_value "a" [ 100; 100 ])
    (Arrays.get s "a" [ 100; 100 ])

let test_arrays_equal () =
  let mk () =
    let s = Arrays.create () in
    Arrays.note_bounds s "x" [ 0 ];
    Arrays.note_bounds s "x" [ 4 ];
    Arrays.freeze s;
    s
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "fresh equal" true (Arrays.equal a b);
  Arrays.set a "x" [ 2 ] 1.0;
  Alcotest.(check bool) "diverged" false (Arrays.equal a b)

let test_arrays_seeding () =
  (* Every cell [freeze] seeds, and every out-of-extent read, equals
     [initial_value] — ranks 1 to 3, negative lower bounds. *)
  let cases =
    [
      ("r1", [ [ -5 ]; [ 7 ] ]);
      ("r2", [ [ -3; 4 ]; [ 2; -2 ] ]);
      ("r3", [ [ -2; -1; 0 ]; [ 2; 3; -4 ] ]);
    ]
  in
  List.iter
    (fun (name, points) ->
      let s = Arrays.create () in
      List.iter (Arrays.note_bounds s name) points;
      Arrays.freeze s;
      let v = Option.get (Arrays.view s name) in
      (* One dimension beyond the extent on both sides. *)
      let rec tuples k =
        if k = Array.length v.Arrays.v_lo then [ [] ]
        else
          let rest = tuples (k + 1) in
          List.concat_map
            (fun x -> List.map (fun t -> x :: t) rest)
            (List.init
               (v.Arrays.v_hi.(k) - v.Arrays.v_lo.(k) + 3)
               (fun j -> v.Arrays.v_lo.(k) - 1 + j))
      in
      List.iter
        (fun idx ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s(%s)" name
               (String.concat "," (List.map string_of_int idx)))
            (Arrays.initial_value name idx)
            (Arrays.get s name idx))
        (tuples 0))
    cases;
  (* A degenerate mix would make the check above vacuous: a fresh 64×64
     array must take most of the 1000 possible values. *)
  let s = Arrays.create () in
  Arrays.note_bounds s "a" [ 0; 0 ];
  Arrays.note_bounds s "a" [ 63; 63 ];
  Arrays.freeze s;
  let seen = Hashtbl.create 1000 in
  Array.iter
    (fun x -> Hashtbl.replace seen x ())
    (Option.get (Arrays.view s "a")).Arrays.v_data;
  let distinct = Hashtbl.length seen in
  if distinct < 900 then
    Alcotest.failf "64x64 array takes only %d distinct initial values" distinct

(* ------------------------------------------------------------------ *)
(* Dry scan: exact extents                                              *)

(* Per-point reference scan: every reference of every statement instance,
   evaluated with checked arithmetic. *)
let brute_force_scan (env : Interp.env) =
  let store = Arrays.create () in
  let eval bindings =
    Loopir.Eval_int.eval (fun v ->
        match List.assoc_opt v bindings with
        | Some x -> x
        | None -> List.assoc v env.Interp.params)
  in
  Array.iter
    (fun (info : Loopir.Prog.stmt_info) ->
      let rec go bindings = function
        | [] ->
            List.iter
              (fun (a, subs, _) ->
                Arrays.note_bounds store a (List.map (eval bindings) subs))
              (Loopir.Prog.refs_of info)
        | (l : Loopir.Prog.loop_ctx) :: rest ->
            for v = eval bindings l.lo to eval bindings l.hi do
              go ((l.index, v) :: bindings) rest
            done
      in
      go [] info.Loopir.Prog.loops)
    env.Interp.stmts;
  Arrays.freeze store;
  store

let check_extents label env =
  let want = brute_force_scan env and got = Interp.scan_bounds env in
  Alcotest.(check (list string))
    (label ^ ": arrays") (Arrays.arrays want) (Arrays.arrays got);
  List.iter
    (fun a ->
      match (Arrays.view want a, Arrays.view got a) with
      | Some w, Some g ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s: %s lo" label a)
            w.Arrays.v_lo g.Arrays.v_lo;
          Alcotest.(check (array int))
            (Printf.sprintf "%s: %s hi" label a)
            w.Arrays.v_hi g.Arrays.v_hi
      | _ -> Alcotest.failf "%s: %s missing a view" label a)
    (Arrays.arrays want)

let test_scan_bounds_builtins () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun size ->
          let params = List.map (fun p -> (p, size)) prog.Loopir.Ast.params in
          check_extents
            (Printf.sprintf "%s@%d" name size)
            (Interp.prepare prog ~params))
        [ 0; 1; 2; 3; 5; 8; 16 ])
    Loopir.Builtin.all

let scan_src ?(params = []) src =
  Interp.prepare (Loopir.Parser.parse ~name:"scan" src) ~params

let test_scan_bounds_hand_written () =
  List.iter
    (fun (label, src, params) -> check_extents label (scan_src ~params src))
    [
      ( "mod/min/max/floor-div subscripts",
        "DO i = 1, n\n\
        \  DO j = -3, n\n\
        \    a(MOD(i*j, 5), MIN(i, j) + MAX(j, 2), (i - j)/3) = b(i + j) + \
         c(MOD(j, 3) - 2)\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 7) ] );
      ( "subscript without the innermost index",
        "DO i = 1, n\n\
        \  DO j = 2, n\n\
        \    a(i) = a(i) + b(2*i - 1, j) + d(n - i, 3)\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 6) ] );
      ( "negative step",
        "DO i = n, 1, -2\n\
        \  DO j = 10, i, -3\n\
        \    a(3*i - j) = a(i) + b(j - i, -i)\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 9) ] );
      ( "triangular and min/max bounds",
        "DO i = 1, n\n\
        \  DO j = i, MIN(2*i, n + 1)\n\
        \    a(i, j - i) = a(j, i) + 1.0\n\
        \  ENDDO\n\
        \  DO k = MAX(1, i - 2), (n + i)/2\n\
        \    b(k - i) = b(k + i) * 2.0\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 8) ] );
      ( "empty inner loop",
        "DO i = 1, n\n\
        \  DO j = 1, 0\n\
        \    z(i, j) = 1.0\n\
        \  ENDDO\n\
        \  a(i) = 2.0\n\
         ENDDO",
        [ ("n", 4) ] );
      ( "statement outside any loop",
        "s(n + 1) = t(2*n) + t(MOD(n, 3))",
        [ ("n", 5) ] );
    ];
  (* An array touched only inside empty loops stays absent. *)
  let store =
    Interp.scan_bounds
      (scan_src ~params:[ ("n", 4) ]
         "DO i = 1, n\n  DO j = 1, 0\n    z(i, j) = 1.0\n  ENDDO\nENDDO\n\
          DO i = 1, 0\n  y(i) = 1.0\nENDDO")
  in
  Alcotest.(check (list string)) "empty loops note nothing" [] (Arrays.arrays store)

let test_scan_bounds_overflow () =
  (* 2^61·i overflows at i = 2: the endpoint scan (which meets it at
     i = 3) raises what the per-point scan raises. *)
  let env =
    scan_src ~params:[ ("n", 3) ]
      "DO i = 1, n\n  a(i * 2305843009213693952) = 1.0\nENDDO"
  in
  Alcotest.check_raises "reference scan" Numeric.Safeint.Overflow (fun () ->
      ignore (brute_force_scan env));
  Alcotest.check_raises "scan_bounds" Numeric.Safeint.Overflow (fun () ->
      ignore (Interp.scan_bounds env));
  Alcotest.check_raises "run_sequential" Numeric.Safeint.Overflow (fun () ->
      ignore (Interp.run_sequential env))

let test_prepare_rejects_reused_index () =
  (* The parser rejects such a nest; one built from the AST must not reach
     analysis or execution either. *)
  let inner =
    Loopir.Parser.parse ~name:"inner" "DO i = 5, 6\n  a(i) = a(i) + 1.0\nENDDO"
  in
  let prog =
    Loopir.Ast.program ~name:"reuse"
      [
        Loopir.Ast.Loop
          {
            index = "i";
            lo = Loopir.Ast.Int 1;
            hi = Loopir.Ast.Int 3;
            step = 1;
            body = inner.Loopir.Ast.body;
          };
      ]
  in
  Alcotest.check_raises "prepare"
    (Invalid_argument
       "Interp.prepare: loop index i reuses an enclosing loop's index")
    (fun () -> ignore (Interp.prepare prog ~params:[]))

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)

let test_interp_prefix_sum () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let env = Interp.prepare prog ~params:[ ("n", 5) ] in
  let store = Interp.run_sequential env in
  (* s(i) = s(i-1) + a(i): check the recurrence holds on the result. *)
  let s i = Arrays.get store "s" [ i ] in
  let a i = Arrays.get store "a" [ i ] in
  let expected = ref (Arrays.initial_value "s" [ 1 ]) in
  for i = 2 to 5 do
    expected := !expected +. a i;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "s(%d)" i) !expected (s i)
  done

let test_interp_schedule_equivalence_fig2 () =
  let env = Interp.prepare Loopir.Builtin.fig2 ~params:[] in
  let tr = Trace.build Loopir.Builtin.fig2 ~params:[] in
  let sched = Sched.sequential_of_trace tr in
  match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let rec_schedule prog params_assoc params_arr =
  match Partition.choose prog with
  | Partition.Rec_chains rp ->
      let c = Partition.materialize_rec rp ~params:params_arr in
      (Interp.prepare prog ~params:params_assoc, Sched.of_rec ~stmt:0 c)
  | _ -> Alcotest.fail "REC plan expected"

let test_rec_schedule_semantics_ex1 () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 10); ("n2", 10) ]
      [| 10; 10 |]
  in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr =
    Trace.build Loopir.Builtin.example1 ~params:[ ("n1", 10); ("n2", 10) ]
  in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_rec_schedule_semantics_ex2 () =
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr = Trace.build Loopir.Builtin.example2 ~params:[ ("n", 12) ] in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_fronts_schedule_cholesky () =
  let params = [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.cholesky ~params in
  let sched = Sched.of_fronts c in
  let env = Interp.prepare Loopir.Builtin.cholesky ~params in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr = Trace.build Loopir.Builtin.cholesky ~params in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_illegal_schedule_detected () =
  (* Reverse the sequential order of a serial chain: must be caught both by
     the legality checker and by the interpreter. *)
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 6) ] in
  let rev_task =
    Array.of_list
      (List.rev
         (Array.to_list
            (Array.map
               (fun (i : Trace.instance) ->
                 { Sched.stmt = i.Trace.stmt; iter = i.Trace.iter })
               tr.Trace.instances)))
  in
  let bad = Sched.of_phases [ Sched.Tasks { label = "bad"; tasks = [| rev_task |] } ] in
  (match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "legality checker missed reversal"
  | Error _ -> ());
  let env = Interp.prepare prog ~params:[ ("n", 6) ] in
  match Interp.check_schedule env bad with
  | Ok () -> Alcotest.fail "interpreter missed reversal"
  | Error _ -> ()

let test_duplicate_instance_detected () =
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = { Sched.stmt = 0; iter = [| k |] } in
  let bad =
    Sched.of_phases
      [ Sched.Doall { label = "dup"; instances = [| inst 1; inst 2; inst 3; inst 2 |] } ]
  in
  match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "duplicate not detected"
  | Error _ -> ()

let test_duplicate_across_tasks_detected () =
  (* The same instance appearing in two tasks of one phase must be caught
     even though each task alone is fine. *)
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = { Sched.stmt = 0; iter = [| k |] } in
  let bad =
    Sched.of_phases
      [
        Sched.Tasks
          { label = "dup"; tasks = [| [| inst 1; inst 2 |]; [| inst 2; inst 3 |] |] };
      ]
  in
  match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "cross-task duplicate not detected"
  | Error _ -> ()

let test_edge_violation_same_doall_detected () =
  (* Putting a dependent pair in the same DOALL phase breaks the edge even
     though every instance appears exactly once and in source order. *)
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 4) ] in
  let all =
    Array.map
      (fun (i : Trace.instance) ->
        { Sched.stmt = i.Trace.stmt; iter = i.Trace.iter })
      tr.Trace.instances
  in
  let bad = Sched.of_phases [ Sched.Doall { label = "flat"; instances = all } ] in
  match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "same-phase dependence edge not detected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)

let test_lpt_makespan () =
  Alcotest.(check (float 1e-9)) "balanced" 6.0
    (Sim.lpt_makespan 2 [| 4.0; 3.0; 3.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "one proc" 12.0
    (Sim.lpt_makespan 1 [| 4.0; 3.0; 3.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "dominant task" 9.0
    (Sim.lpt_makespan 4 [| 9.0; 1.0; 1.0; 1.0 |])

let test_sim_speedup_monotone () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 30); ("n2", 40) ]
      [| 30; 40 |]
  in
  ignore env;
  let cost = Sim.base in
  let s p = Sim.speedup cost ~threads:p ~n_seq:(30 * 40) sched in
  Alcotest.(check bool) "2 ≥ 1" true (s 2 >= s 1);
  Alcotest.(check bool) "4 ≥ 2" true (s 4 >= s 2);
  Alcotest.(check bool) "speedup positive" true (s 1 > 0.0)

let test_sim_code_factor () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 30); ("n2", 40) ]
      [| 30; 40 |]
  in
  ignore env;
  let fast = Sim.with_factor 0.8 and slow = Sim.with_factor 1.2 in
  Alcotest.(check bool) "cheaper code is faster" true
    (Sim.time fast ~threads:2 sched < Sim.time slow ~threads:2 sched)

let test_pipeline_time () =
  let c = { Sim.base with Sim.fork = 0.0; barrier = 0.0 } in
  (* 4 stages, no delay, 4 threads: all parallel → one stage time. *)
  Alcotest.(check (float 1e-9)) "no delay" 10.0
    (Sim.pipeline_time c ~threads:4 ~stages:4 ~stage_work:10.0 ~delay:0.0);
  (* delay ≥ stage_work on one thread: serialized by delay. *)
  let t = Sim.pipeline_time c ~threads:4 ~stages:4 ~stage_work:1.0 ~delay:5.0 in
  Alcotest.(check (float 1e-9)) "delay bound" 16.0 t

(* ------------------------------------------------------------------ *)
(* Domain executor                                                      *)

let test_exec_parallel_matches_sequential () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 12); ("n2", 12) ]
      [| 12; 12 |]
  in
  List.iter
    (fun threads ->
      match Exec.check env ~threads sched with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "threads=%d: %s" threads m))
    [ 1; 2; 4 ]

let test_exec_fronts_parallel () =
  let params = [ ("nmat", 2); ("m", 2); ("n", 4); ("nrhs", 1) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.cholesky ~params in
  let sched = Sched.of_fronts c in
  let env = Interp.prepare Loopir.Builtin.cholesky ~params in
  match Exec.check env ~threads:4 sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_exec_determinism_paper_examples () =
  (* Every paper example, every thread count: the domain executor must land
     on exactly the sequential store (same float results, no races). *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] );
    ]
  in
  List.iter
    (fun (name, prog, params) ->
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0 (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      let env = Interp.prepare prog ~params in
      List.iter
        (fun threads ->
          match Exec.check env ~threads sched with
          | Ok () -> ()
          | Error m ->
              Alcotest.fail
                (Printf.sprintf "%s at %d thread(s): %s" name threads m))
        [ 1; 2; 4; 8 ])
    cases

let test_compiled_matches_interp_examples () =
  (* Both engines must leave bit-for-bit identical stores (and both equal
     the sequential oracle) on every paper example, at 1/2/4 domains. *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] );
    ]
  in
  List.iter
    (fun (name, prog, params) ->
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0
              (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          let compiled = Exec.run ~engine:`Compiled env ~threads sched in
          Alcotest.(check bool)
            (Printf.sprintf "%s compiled t=%d ≡ sequential" name threads)
            true
            (Arrays.equal compiled oracle);
          let interp = Exec.run ~engine:`Interp env ~threads sched in
          Alcotest.(check bool)
            (Printf.sprintf "%s compiled t=%d ≡ interp" name threads)
            true
            (Arrays.equal compiled interp))
        [ 1; 2; 4 ])
    cases

let test_compiled_matches_interp_corpus () =
  (* Every corpus kernel through a sequential-order schedule: exercises
     the compiler's general paths (non-affine subscripts, parameters in
     subscripts, multi-statement bodies, reductions). *)
  List.iter
    (fun (name, prog) ->
      let params =
        List.map (fun p -> (p, 8)) prog.Loopir.Ast.params
      in
      let tr = Trace.build prog ~params in
      let sched = Sched.sequential_of_trace tr in
      let env = Interp.prepare prog ~params in
      let compiled = Exec.run ~engine:`Compiled env ~threads:1 sched in
      Alcotest.(check bool)
        (name ^ ": compiled ≡ sequential interp")
        true
        (Arrays.equal compiled (Interp.run_sequential env)))
    Loopir.Builtin.corpus

(* ------------------------------------------------------------------ *)
(* Bytecode engine                                                      *)

module Bytecode = Runtime.Bytecode

let test_bytecode_matches_interp_examples () =
  (* The VM must leave bit-for-bit identical stores to both the closure
     engine and the sequential oracle on every paper example, at 1/2/4
     domains. *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] );
    ]
  in
  List.iter
    (fun (name, prog, params) ->
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0
              (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          let byte = Exec.run ~engine:`Bytecode env ~threads sched in
          Alcotest.(check bool)
            (Printf.sprintf "%s bytecode t=%d ≡ sequential" name threads)
            true
            (Arrays.equal byte oracle);
          let compiled = Exec.run ~engine:`Compiled env ~threads sched in
          Alcotest.(check bool)
            (Printf.sprintf "%s bytecode t=%d ≡ compiled" name threads)
            true
            (Arrays.equal byte compiled))
        [ 1; 2; 4 ])
    cases

let test_bytecode_matches_interp_corpus () =
  (* Every corpus kernel, at 1/2/4 domains: exercises the lowerer's
     general paths (reductions, powers, parameters in subscripts,
     multi-statement bodies) and the closure fallback (non-affine
     subscripts, MOD). *)
  List.iter
    (fun (name, prog) ->
      let params = List.map (fun p -> (p, 8)) prog.Loopir.Ast.params in
      let tr = Trace.build prog ~params in
      let sched = Sched.sequential_of_trace tr in
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: bytecode t=%d ≡ sequential interp" name
               threads)
            true
            (Arrays.equal (Exec.run ~engine:`Bytecode env ~threads sched) oracle))
        [ 1; 2; 4 ])
    Loopir.Builtin.corpus

let test_bytecode_fallback_nonaffine () =
  (* A quadratic subscript cannot be fused into a linear offset: the
     statement must take the closure fallback — and still match the
     oracle exactly. *)
  let open Loopir.Ast in
  let sq = Bin (Mul, Var "i", Var "i") in
  let prog =
    program ~name:"nonaffine"
      [
        Loop
          {
            index = "i";
            lo = Int 1;
            hi = Int 6;
            step = 1;
            body =
              [ Assign (("a", [ sq ]), Bin (Add, Ref ("a", [ sq ]), Int 1)) ];
          };
      ]
  in
  let env = Interp.prepare prog ~params:[] in
  let store = Interp.scan_bounds env in
  let bc = Bytecode.compile env store in
  Alcotest.(check bool) "statement fell back" true (Bytecode.n_fallbacks bc > 0);
  let sched = Sched.sequential_of_trace (Trace.build prog ~params:[]) in
  Alcotest.(check bool)
    "fallback path ≡ sequential interp" true
    (Arrays.equal
       (Exec.run ~engine:`Bytecode env ~threads:2 sched)
       (Interp.run_sequential env))

let test_chunking_variants_agree () =
  (* Static pre-dealt buckets and cost-proportional self-scheduling must
     produce identical stores for every engine — chunking only moves
     work between domains, never reorders it within a chain. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 16); ("n2", 16) ]
      [| 16; 16 |]
  in
  let oracle = Interp.run_sequential env in
  List.iter
    (fun engine ->
      List.iter
        (fun chunking ->
          let got = Exec.run ~engine ~chunking env ~threads:4 sched in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s ≡ sequential"
               (Exec.engine_name engine)
               (Exec.chunking_name chunking))
            true (Arrays.equal got oracle))
        [ `Static; `Cost Sim.base_seconds ])
    [ `Compiled; `Bytecode; `Interp ]

let test_doall_chunk_count_bounds () =
  (* The chunk policy: nothing for empty phases, one chunk sequentially,
     never fewer chunks than domains (work exists), never more than
     8×domains or the instance count. *)
  let c = Sim.base_seconds in
  Alcotest.(check int) "empty phase" 0 (Sim.doall_chunk_count c ~threads:4 ~n:0);
  Alcotest.(check int) "sequential" 1
    (Sim.doall_chunk_count c ~threads:1 ~n:5000);
  Alcotest.(check int) "capped by n" 2
    (Sim.doall_chunk_count c ~threads:4 ~n:2);
  List.iter
    (fun n ->
      let k = Sim.doall_chunk_count c ~threads:4 ~n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: threads <= k <= 8*threads" n)
        true
        (k >= 4 && k <= 32 && k <= n))
    [ 10; 1000; 100_000; 10_000_000 ];
  (* Cheap iterations afford fewer chunks than expensive ones. *)
  let cheap = Sim.doall_chunk_count c ~threads:4 ~n:1000 in
  let expensive =
    Sim.doall_chunk_count
      { c with Sim.w_iter = c.Sim.w_iter *. 100.0 }
      ~threads:4 ~n:1000
  in
  Alcotest.(check bool) "cost-proportional" true (expensive >= cheap)

let test_doall_chunk_ranges () =
  (* Chunk ranges tile [0, n) exactly, in order, with no empty chunk. *)
  List.iter
    (fun (k, n) ->
      let ranges = Exec.doall_chunks ~chunks:k n in
      let expected_k = if n = 0 then 0 else min (max 1 k) n in
      Alcotest.(check int)
        (Printf.sprintf "k=%d n=%d: chunk count" k n)
        expected_k (List.length ranges);
      let pos = ref 0 in
      List.iter
        (fun (off, len) ->
          Alcotest.(check int) "contiguous" !pos off;
          Alcotest.(check bool) "non-empty" true (len > 0);
          pos := !pos + len)
        ranges;
      Alcotest.(check int) "complete" n !pos)
    [ (1, 0); (4, 0); (1, 7); (3, 7); (7, 7); (12, 7); (0, 5); (-2, 5); (8, 64) ]

(* ------------------------------------------------------------------ *)
(* Workers: the persistent executor pool                                *)

module Workers = Runtime.Workers

let test_workers_results_in_order () =
  let w = Workers.create ~domains:3 in
  let r = Workers.run w (Array.init 10 (fun i () -> i * i)) in
  Workers.shutdown w;
  Alcotest.(check (array int)) "in order" (Array.init 10 (fun i -> i * i)) r

let test_workers_reuse_no_respawn () =
  let w = Workers.create ~domains:4 in
  Alcotest.(check int) "spawned = domains - 1" 3 (Workers.spawned w);
  for k = 1 to 50 do
    let r = Workers.run w (Array.init 8 (fun i () -> i + k)) in
    Alcotest.(check int) "sum" ((8 * k) + 28) (Array.fold_left ( + ) 0 r)
  done;
  Alcotest.(check int) "no respawn across 50 runs" 3 (Workers.spawned w);
  Workers.shutdown w

let test_workers_pool_of_one () =
  let w = Workers.create ~domains:1 in
  Alcotest.(check int) "nothing spawned" 0 (Workers.spawned w);
  let r = Workers.run w (Array.init 5 (fun i () -> 2 * i)) in
  Alcotest.(check (array int)) "caller drains alone" [| 0; 2; 4; 6; 8 |] r;
  Workers.shutdown w

let test_workers_oversubscription () =
  (* far more thunks than domains: everything still runs exactly once *)
  let w = Workers.create ~domains:2 in
  let r = Workers.run w (Array.init 100 (fun i () -> i)) in
  Alcotest.(check int) "all jobs ran" (100 * 99 / 2)
    (Array.fold_left ( + ) 0 r);
  Workers.shutdown w

exception Boom

let test_workers_exception_propagates () =
  let w = Workers.create ~domains:2 in
  (match Workers.run w [| (fun () -> 1); (fun () -> raise Boom) |] with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ());
  (* the pool survives a failed call *)
  let r = Workers.run w [| (fun () -> 3); (fun () -> 4) |] in
  Alcotest.(check (array int)) "pool survives" [| 3; 4 |] r;
  Workers.shutdown w

let test_workers_shutdown_idempotent_and_post_run () =
  let w = Workers.create ~domains:3 in
  ignore (Workers.run w (Array.init 4 (fun i () -> i)));
  Workers.shutdown w;
  Workers.shutdown w;
  (* a run after shutdown still completes: the caller drains its own jobs *)
  let r = Workers.run w (Array.init 4 (fun i () -> i + 1)) in
  Alcotest.(check (array int)) "post-shutdown run" [| 1; 2; 3; 4 |] r;
  Alcotest.(check int) "domains unchanged" 3 (Workers.domains w)

let test_workers_telemetry_consistency () =
  (* jobs = stolen + caller must hold over the diff of any quiescent
     window, whatever the 4-domain queue race decided; every queued job
     contributes one queue-wait observation. *)
  let before = Obs.Metrics.snapshot () in
  let w = Workers.create ~domains:4 in
  let total = Atomic.make 0 in
  for _ = 1 to 5 do
    ignore
      (Workers.run w
         (Array.init 8 (fun i () -> Atomic.fetch_and_add total i)))
  done;
  Workers.shutdown w;
  let d =
    Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ())
  in
  let c name = Option.value ~default:0 (List.assoc_opt name d.Obs.Metrics.counters) in
  Alcotest.(check int) "every thunk counted" 40 (c "runtime.workers.jobs");
  Alcotest.(check int) "jobs = stolen + caller"
    (c "runtime.workers.jobs")
    (c "runtime.workers.jobs_stolen" + c "runtime.workers.jobs_caller");
  Alcotest.(check bool) "caller ran at least its first thunks" true
    (c "runtime.workers.jobs_caller" >= 5);
  let queued =
    List.assoc_opt "runtime.workers.queue_wait_us" d.Obs.Metrics.histograms
  in
  (match queued with
  | None -> Alcotest.fail "no queue-wait observations"
  | Some h ->
      (* 5 runs × 7 queued jobs (the first thunk never queues) *)
      Alcotest.(check int) "one wait per queued job" 35
        h.Obs.Histogram.count);
  Alcotest.(check int) "all thunks really ran" (5 * (8 * 7 / 2))
    (Atomic.get total)

let test_exec_degenerate_threads () =
  (* threads ≤ 0 must clamp to sequential execution, not crash or spawn. *)
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let params = [ ("n", 4) ] in
  let tr = Trace.build prog ~params in
  let sched = Sched.sequential_of_trace tr in
  let env = Interp.prepare prog ~params in
  List.iter
    (fun threads ->
      match Exec.check env ~threads sched with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "threads=%d: %s" threads m))
    [ 0; -1 ];
  (* Bucketing never produces empty buckets to spawn for. *)
  Alcotest.(check int) "no buckets for empty input" 0
    (List.length (Exec.doall_buckets 4 [||]));
  List.iter
    (fun threads ->
      let buckets = Exec.doall_buckets threads [| 1; 2; 3 |] in
      Alcotest.(check int) "all elements kept" 3
        (List.fold_left (fun acc b -> acc + Array.length b) 0 buckets);
      Alcotest.(check bool) "no empty bucket" true
        (List.for_all (fun b -> Array.length b > 0) buckets))
    [ -3; 0; 1; 2; 7 ]

let test_thread_loads_overflow () =
  (* A phase that used more buckets than [threads] must fold the overflow
     into the last slot rather than silently dropping those loads
     (regression: loads were dropped when stats were taken with a larger
     effective thread count). *)
  let stat loads =
    {
      Exec.label = "p";
      n_instances = Array.fold_left ( + ) 0 loads;
      n_units = Array.length loads;
      loads;
      busy = Array.map (fun _ -> 0.0) loads;
      alloc = Array.map (fun _ -> 0.0) loads;
      seconds = 0.0;
    }
  in
  let timed =
    {
      Exec.store = Arrays.create ();
      seconds = 0.0;
      phase_stats = [ stat [| 1; 2; 3; 4; 5 |]; stat [| 10 |] ];
    }
  in
  Alcotest.(check (array int))
    "overflow folds into last slot" [| 11; 14 |]
    (Exec.thread_loads timed ~threads:2);
  Alcotest.(check (array int))
    "exact fit untouched" [| 11; 2; 3; 4; 5 |]
    (Exec.thread_loads timed ~threads:5);
  (* End to end: run a many-task schedule sequentially, then ask for the
     loads at the parallel thread count — nothing may be lost. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  let tmd = Exec.run_timed env ~threads:1 sched in
  let total = Array.fold_left ( + ) 0 (Exec.thread_loads tmd ~threads:4) in
  Alcotest.(check int) "all instances accounted for" (12 * 12) total

let test_run_timed_busy_arrays () =
  (* busy is aligned with loads and never negative; sequential runs report
     exactly one slot. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 10); ("n2", 10) ]
      [| 10; 10 |]
  in
  List.iter
    (fun threads ->
      let tmd = Exec.run_timed env ~threads sched in
      List.iter
        (fun (ps : Exec.phase_stat) ->
          if threads = 1 then
            Alcotest.(check int) "one busy slot" 1 (Array.length ps.Exec.busy);
          Array.iter
            (fun b ->
              Alcotest.(check bool) "busy >= 0" true (b >= 0.0))
            ps.Exec.busy;
          Alcotest.(check bool) "busy within phase wall" true
            (Array.fold_left max 0.0 ps.Exec.busy
            <= ps.Exec.seconds +. 1e-3))
        tmd.Exec.phase_stats)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runtime"
    [
      ( "arrays",
        [
          Alcotest.test_case "extents and values" `Quick test_arrays_basic;
          Alcotest.test_case "equality" `Quick test_arrays_equal;
          Alcotest.test_case "seeding = initial_value" `Quick
            test_arrays_seeding;
        ] );
      ( "scan",
        [
          Alcotest.test_case "exact extents (builtins, 7 sizes)" `Quick
            test_scan_bounds_builtins;
          Alcotest.test_case "exact extents (hand-written nests)" `Quick
            test_scan_bounds_hand_written;
          Alcotest.test_case "overflow raises as before" `Quick
            test_scan_bounds_overflow;
        ] );
      ( "interp",
        [
          Alcotest.test_case "prefix sum semantics" `Quick
            test_interp_prefix_sum;
          Alcotest.test_case "prepare rejects a reused loop index" `Quick
            test_prepare_rejects_reused_index;
          Alcotest.test_case "sequential schedule ≡ program" `Quick
            test_interp_schedule_equivalence_fig2;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "REC semantics (ex1)" `Quick
            test_rec_schedule_semantics_ex1;
          Alcotest.test_case "REC semantics (ex2)" `Quick
            test_rec_schedule_semantics_ex2;
          Alcotest.test_case "dataflow fronts (cholesky)" `Quick
            test_fronts_schedule_cholesky;
          Alcotest.test_case "illegal schedule detected" `Quick
            test_illegal_schedule_detected;
          Alcotest.test_case "duplicate instance detected" `Quick
            test_duplicate_instance_detected;
          Alcotest.test_case "cross-task duplicate detected" `Quick
            test_duplicate_across_tasks_detected;
          Alcotest.test_case "same-phase edge violation detected" `Quick
            test_edge_violation_same_doall_detected;
        ] );
      ( "sim",
        [
          Alcotest.test_case "LPT makespan" `Quick test_lpt_makespan;
          Alcotest.test_case "speedup monotone in threads" `Quick
            test_sim_speedup_monotone;
          Alcotest.test_case "code factor" `Quick test_sim_code_factor;
          Alcotest.test_case "pipeline model" `Quick test_pipeline_time;
        ] );
      ( "exec",
        [
          Alcotest.test_case "domains ≡ sequential (ex1)" `Quick
            test_exec_parallel_matches_sequential;
          Alcotest.test_case "domains ≡ sequential (cholesky fronts)" `Quick
            test_exec_fronts_parallel;
          Alcotest.test_case "determinism at 1/2/4/8 threads" `Quick
            test_exec_determinism_paper_examples;
          Alcotest.test_case "compiled ≡ interp (paper examples, 1/2/4)"
            `Quick test_compiled_matches_interp_examples;
          Alcotest.test_case "compiled ≡ interp (full corpus)" `Quick
            test_compiled_matches_interp_corpus;
          Alcotest.test_case "bytecode ≡ interp (paper examples, 1/2/4)"
            `Quick test_bytecode_matches_interp_examples;
          Alcotest.test_case "bytecode ≡ interp (full corpus, 1/2/4)" `Quick
            test_bytecode_matches_interp_corpus;
          Alcotest.test_case "bytecode closure fallback (non-affine)" `Quick
            test_bytecode_fallback_nonaffine;
          Alcotest.test_case "chunking variants agree" `Quick
            test_chunking_variants_agree;
          Alcotest.test_case "cost-proportional chunk count bounds" `Quick
            test_doall_chunk_count_bounds;
          Alcotest.test_case "DOALL chunk ranges tile exactly" `Quick
            test_doall_chunk_ranges;
          Alcotest.test_case "degenerate thread counts" `Quick
            test_exec_degenerate_threads;
          Alcotest.test_case "thread_loads overflow folding" `Quick
            test_thread_loads_overflow;
          Alcotest.test_case "busy arrays" `Quick test_run_timed_busy_arrays;
        ] );
      ( "workers",
        [
          Alcotest.test_case "results in submission order" `Quick
            test_workers_results_in_order;
          Alcotest.test_case "pool reuse spawns once" `Quick
            test_workers_reuse_no_respawn;
          Alcotest.test_case "pool of one" `Quick test_workers_pool_of_one;
          Alcotest.test_case "over-subscription" `Quick
            test_workers_oversubscription;
          Alcotest.test_case "exception propagation" `Quick
            test_workers_exception_propagates;
          Alcotest.test_case "shutdown idempotent, post-shutdown run" `Quick
            test_workers_shutdown_idempotent_and_post_run;
          Alcotest.test_case "telemetry counters consistent on 4 domains"
            `Quick test_workers_telemetry_consistency;
        ] );
    ]
