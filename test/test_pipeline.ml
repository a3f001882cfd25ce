(* Tests for the pipeline layer: strategy classification, typed plans,
   result-based error threading, the instrumented driver, and the
   Report/Json renderers. *)

module Driver = Pipeline.Driver
module Plan = Pipeline.Plan
module Report = Pipeline.Report
module Json = Pipeline.Json

let strategy_of plan = Plan.strategy_name (Plan.strategy plan)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Classification (Algorithm 1 selection through the pipeline)          *)

let test_classify_builtins () =
  List.iter
    (fun (name, prog, expected) ->
      match Driver.classify prog with
      | Ok plan -> Alcotest.(check string) name expected (strategy_of plan)
      | Error e -> Alcotest.fail (name ^ ": " ^ Diag.to_string e))
    [
      ("example1", Loopir.Builtin.example1, "rec");
      ("fig2", Loopir.Builtin.fig2, "rec");
      ("example2", Loopir.Builtin.example2, "rec");
      ("example3", Loopir.Builtin.example3, "pdm");
      ("cholesky", Loopir.Builtin.cholesky, "pdm");
    ]

let test_forced_strategy_roundtrip () =
  (* strategy_of_string ∘ strategy_name = identity, and a forced plan is
     of the strategy asked for (example2 meets every scheme's
     hypotheses). *)
  List.iter
    (fun s ->
      let name = Plan.strategy_name s in
      Alcotest.(check bool)
        ("roundtrip " ^ name) true
        (Plan.strategy_of_string name = Some s);
      match Pipeline.Strategy.plan s Loopir.Builtin.example2 with
      | Ok plan ->
          Alcotest.(check string) ("plan " ^ name) name (strategy_of plan)
      | Error e -> Alcotest.failf "plan %s: %s" name (Diag.to_string e))
    Plan.all_strategies;
  Alcotest.(check bool) "unknown name" true
    (Plan.strategy_of_string "nope" = None)

let test_forced_rec_outside_hypotheses () =
  (* Cholesky has no single full-rank coupled pair: forcing REC must fail
     with a typed error, not an exception. *)
  match Driver.classify ~strategy:Plan.Rec Loopir.Builtin.cholesky with
  | Ok _ -> Alcotest.fail "REC should not apply to cholesky"
  | Error (Diag.Unsupported _) -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ Diag.to_string e)

(* ------------------------------------------------------------------ *)
(* Driver.run: every strategy end to end on Example 2                   *)

let run_ex2 ?strategy ?(threads = 4) () =
  let options = { Driver.default_options with threads; strategy } in
  Driver.run ~options ~name:"example2" ~params:[ ("n", 12) ]
    Loopir.Builtin.example2

let check_ok name = function
  | Report.Passed -> ()
  | Report.Failed m -> Alcotest.fail (name ^ " failed: " ^ m)
  | Report.Skipped -> Alcotest.fail (name ^ " unexpectedly skipped")

let test_run_all_strategies_ex2 () =
  List.iter
    (fun strategy ->
      let name = Plan.strategy_name strategy in
      match run_ex2 ~strategy () with
      | Error e -> Alcotest.fail (name ^ ": " ^ Driver.error_to_string e)
      | Ok { sched; report; _ } ->
          Alcotest.(check string) (name ^ " strategy") name
            report.Report.strategy;
          if strategy = Plan.Doacross then begin
            Alcotest.(check bool) "doacross has no schedule" true (sched = None);
            Alcotest.(check bool) "doacross has a makespan" true
              (report.Report.model_makespan <> None)
          end
          else begin
            check_ok (name ^ " legality") report.Report.legality;
            check_ok (name ^ " semantics") report.Report.semantics;
            Alcotest.(check bool) (name ^ " instances") true
              (report.Report.n_instances = Some 144)
          end)
    Plan.all_strategies

let test_run_report_contents () =
  match run_ex2 () with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } ->
      (* Per-stage timings in pipeline order. *)
      let stages = List.map fst report.Report.timings in
      Alcotest.(check (list string))
        "stage order"
        [ "classify"; "materialize"; "schedule"; "validate"; "execute" ]
        stages;
      List.iter
        (fun (name, s) ->
          Alcotest.(check bool) (name ^ " non-negative") true (s >= 0.0))
        report.Report.timings;
      (* REC partition statistics: the three sets cover all 144 points. *)
      (match report.Report.stats with
      | Some { Report.p1 = Some p1; p2 = Some p2; p3 = Some p3; _ } ->
          Alcotest.(check int) "three sets cover" 144 (p1 + p2 + p3)
      | _ -> Alcotest.fail "missing REC stats");
      (* Thread loads account for every instance. *)
      (match report.Report.thread_loads with
      | Some loads ->
          Alcotest.(check int) "loads sum" 144 (Array.fold_left ( + ) 0 loads)
      | None -> Alcotest.fail "missing thread loads");
      (* Phase profile matches the schedule shape. *)
      Alcotest.(check bool) "phase profile matches phases" true
        (report.Report.n_phases = Some (List.length report.Report.phases));
      Alcotest.(check int) "profile instances sum" 144
        (List.fold_left
           (fun acc p -> acc + p.Report.instances)
           0 report.Report.phases)

let test_run_text_and_json () =
  match run_ex2 () with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } ->
      let text = Report.to_text report in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            ("text mentions " ^ needle) true
            (contains ~needle text))
        [ "example2"; "strategy : rec"; "legality : ok"; "semantics: ok" ];
      let json = Json.to_string (Report.to_json report) in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            ("json mentions " ^ needle) true
            (contains ~needle json))
        [
          "\"program\":\"example2\"";
          "\"strategy\":\"rec\"";
          "\"stages\":{\"classify\":";
          "\"legality\":\"ok\"";
          "\"partition\":{";
        ]

(* An Omega elimination on this nest once needed ~6,000 splinters per
   lower bound and aborted the process.  The analysis now raises a typed
   Blowup, Algorithm 1 degrades to dataflow fronts (the bounds are
   constants), and the run passes both checks. *)
let test_run_degrades_on_splinter_blowup () =
  let prog =
    Loopir.Parser.parse ~name:"splinter"
      "DO i = 1, 6\n\
      \  DO j = 1, 6\n\
      \    DO k = 1, 6\n\
      \      a(-1*i + 3*j + -1*k + 4, 2*j + 3*k + 3) = a(3*i + 1*k + 4, -1*i \
       + 2*j + 1*k + 2)\n\
      \    ENDDO\n\
      \  ENDDO\n\
       ENDDO\n"
  in
  (match Driver.analyze prog with
  | Error (Diag.Set_blowup _) -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Diag.to_string e)
  | Ok _ -> Alcotest.fail "expected a set-algebra blowup");
  let options = { Driver.default_options with threads = 1 } in
  match Driver.run ~options ~name:"splinter" ~params:[] prog with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } ->
      Alcotest.(check string) "degrades to dataflow" "dataflow"
        report.Report.strategy;
      check_ok "legality" report.Report.legality;
      check_ok "semantics" report.Report.semantics;
      Alcotest.(check bool) "every instance" true
        (report.Report.n_instances = Some 216)

(* A checked run builds the exact instance trace once: dataflow plans
   validate against the trace their fronts were peeled from, every other
   plan builds it in validate. *)
let test_run_builds_one_trace () =
  let builds = Obs.Counter.make "trace.builds" in
  List.iter
    (fun (name, prog, params, strategy, fronts) ->
      let options = { Driver.default_options with threads = 1; strategy } in
      let before = Obs.Counter.value builds in
      (match Driver.run ~options ~name ~params prog with
      | Error e -> Alcotest.fail (Driver.error_to_string e)
      | Ok o ->
          Alcotest.(check bool)
            (name ^ " peels dataflow fronts")
            fronts
            (match o.Driver.concrete with Driver.Fronts _ -> true | _ -> false);
          Alcotest.(check string) (name ^ " legality") "ok"
            (Report.check_result_string o.Driver.report.Report.legality));
      Alcotest.(check int)
        (name ^ ": one trace build")
        1
        (Obs.Counter.value builds - before))
    [
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ],
        None,
        true );
      ("example3", Loopir.Builtin.example3, [ ("n", 6) ], None, true);
      ( "example1",
        Loopir.Builtin.example1,
        [ ("n1", 8); ("n2", 8) ],
        Some Plan.Rec,
        false );
    ]

(* ------------------------------------------------------------------ *)
(* Error threading: typed Diag errors instead of failwith strings       *)

let test_unbound_parameter () =
  match Driver.run ~name:"example2" ~params:[] Loopir.Builtin.example2 with
  | Error
      { Driver.stage = Diag.Materialize; error = Diag.Unbound_parameter p; _ }
    ->
      Alcotest.(check string) "which parameter" "n" p
  | Error e -> Alcotest.fail ("unexpected: " ^ Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "missing parameter not reported"

let test_invalid_thread_count () =
  let options = { Driver.default_options with threads = 0 } in
  match Driver.run ~options ~name:"fig2" ~params:[] Loopir.Builtin.fig2 with
  | Error { Driver.error = Diag.Invalid_thread_count 0; _ } -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "threads=0 accepted"

let test_trace_unbound_parameter_result () =
  match Depend.Trace.build_result Loopir.Builtin.example2 ~params:[] with
  | Error (Diag.Unbound_parameter "n") -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Diag.to_string e)
  | Ok _ -> Alcotest.fail "unbound parameter not reported"

let test_materialize_result_param_arity () =
  match Driver.classify Loopir.Builtin.example1 with
  | Ok (Plan.Rec_chains rp) -> (
      match Core.Partition.materialize rp ~params:[| 10 |] with
      | Error (Diag.Param_arity { expected = 2; got = 1 }) -> ()
      | Error e -> Alcotest.fail ("unexpected: " ^ Diag.to_string e)
      | Ok _ -> Alcotest.fail "arity mismatch not reported")
  | _ -> Alcotest.fail "example1 REC expected"

(* A nest whose never-executed statement has a subscript whose affine
   form overflows (2 × 4611686018427387903 leaves the native range):
   every layer must answer with a typed error or a result, never with
   the bare [Numeric.Safeint.Overflow]. *)
let overflow_src =
  "DO i = 1, 3\n\
  \  a(i) = a(i) + 1.0\n\
   ENDDO\n\
   DO j = 1, 0\n\
  \  b(4611686018427387903*j*2) = 1.0\n\
   ENDDO\n"

let overflow1_src =
  "DO j = 1, 0\n  b(4611686018427387903*j*2) = b(j) + 1.0\nENDDO\n"

(* The recpart binary next to this test's build directory. *)
let recpart_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "recpart.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_overflowing_subscript_typed () =
  let prog = Loopir.Parser.parse ~name:"overflow" overflow_src in
  (* The statement never runs, so the compiled run agrees with the
     oracle. *)
  (match Driver.run ~name:"overflow" ~params:[] prog with
  | Ok { report; _ } ->
      Alcotest.(check string) "legality" "ok"
        (Report.check_result_string report.Report.legality);
      Alcotest.(check string) "semantics" "ok"
        (Report.check_result_string report.Report.semantics)
  | Error e -> Alcotest.fail ("run: " ^ Driver.error_to_string e));
  (* The analysis reads the subscript and fails typed. *)
  (match Driver.guarded (fun () -> Depend.Solve.analyze_unified prog) with
  | Error Diag.Int_overflow -> ()
  | Error e -> Alcotest.fail ("unified analysis: " ^ Diag.to_string e)
  | Ok _ -> Alcotest.fail "unified analysis: overflow not reported");
  (* Alone, the statement is the nest the analysis must classify: the
     run fails typed at classify. *)
  let single = Loopir.Parser.parse ~name:"overflow1" overflow1_src in
  (match Driver.analyze single with
  | Error Diag.Int_overflow -> ()
  | Error e -> Alcotest.fail ("analyze: " ^ Diag.to_string e)
  | Ok _ -> Alcotest.fail "analyze: overflow not reported");
  (match Driver.run ~name:"overflow1" ~params:[] single with
  | Error { Driver.stage = Diag.Classify; error = Diag.Int_overflow; _ } -> ()
  | Error e -> Alcotest.fail ("run: " ^ Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "run: overflow not reported");
  Alcotest.(check string) "label" "int-overflow" (Diag.label Diag.Int_overflow);
  (* Served: a typed pipeline error, not a panic. *)
  let svc =
    Svc.Service.create
      ~config:{ Svc.Service.default_config with domains = 1; threads = 1 }
      ()
  in
  let reply =
    Fun.protect
      ~finally:(fun () -> Svc.Service.shutdown svc)
      (fun () ->
        Svc.Service.run_one svc
          (Svc.Proto.request ~id:"overflow" ~name:"overflow"
             ~mode:Svc.Proto.Classify (Svc.Proto.Src overflow_src)))
  in
  (match reply.Svc.Proto.body with
  | Svc.Proto.Failed (Svc.Proto.Pipeline_error { label; _ }) ->
      Alcotest.(check string) "served label" "int-overflow" label
  | Svc.Proto.Failed f ->
      Alcotest.failf "served: %s %s" (Svc.Proto.failure_kind f)
        (Svc.Proto.failure_message f)
  | _ -> Alcotest.fail "served: overflow not reported");
  (* The CLI exits 1 with the typed message, as on the other typed
     errors: [analyze] on both nests, [run] on the single statement; [run]
     on the whole nest succeeds. *)
  let src = Filename.temp_file "overflow" ".f" in
  let src1 = Filename.temp_file "overflow1" ".f" in
  let err = Filename.temp_file "overflow" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; src1; err ])
    (fun () ->
      List.iter
        (fun (path, text) ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc text))
        [ (src, overflow_src); (src1, overflow1_src) ];
      let recpart cmd path =
        let code =
          Sys.command
            (Filename.quote_command recpart_exe [ cmd; path ]
               ~stdout:Filename.null ~stderr:err)
        in
        (code, read_file err)
      in
      List.iter
        (fun (cmd, path, label) ->
          let code, msg = recpart cmd path in
          Alcotest.(check int) (label ^ " exits 1") 1 code;
          Alcotest.(check bool) (label ^ " prints the typed error: " ^ msg)
            true
            (contains ~needle:"integer overflow" msg
            && not (contains ~needle:"uncaught exception" msg)))
        [
          ("analyze", src, "recpart analyze");
          ("analyze", src1, "recpart analyze (single statement)");
          ("run", src1, "recpart run (single statement)");
        ];
      Alcotest.(check int) "recpart run exits 0" 0 (fst (recpart "run" src)))

let test_error_labels_stable () =
  (* Kebab-case labels are part of the tooling interface. *)
  List.iter
    (fun (e, label) -> Alcotest.(check string) label label (Diag.label e))
    [
      (Diag.Unsupported "x", "unsupported");
      (Diag.Unbound_parameter "n", "unbound-parameter");
      (Diag.Param_arity { expected = 1; got = 2 }, "param-arity");
      (Diag.Singular_recurrence "t", "singular-recurrence");
      (Diag.Set_blowup "b", "set-blowup");
      (Diag.Invalid_thread_count 0, "invalid-thread-count");
      (Diag.Int_overflow, "int-overflow");
    ];
  (* Every stage has a printable name. *)
  List.iter
    (fun s -> Alcotest.(check bool) "stage name" true (Diag.stage_name s <> ""))
    Diag.all_stages

let test_error_carries_stage_timings () =
  (* A mid-pipeline failure still reports where time went: classify
     completed, then materialize died on the unbound parameter — both
     durations are in the list, in pipeline order. *)
  match Driver.run ~name:"example2" ~params:[] Loopir.Builtin.example2 with
  | Error { Driver.stage = Diag.Materialize; timings; _ } ->
      Alcotest.(check (list string))
        "stages that ran are recorded"
        [ "classify"; "materialize" ]
        (List.map fst timings);
      List.iter
        (fun (_, s) ->
          Alcotest.(check bool) "timing non-negative" true (s >= 0.0))
        timings
  | Error e -> Alcotest.fail ("unexpected: " ^ Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "missing parameter not reported"

(* ------------------------------------------------------------------ *)
(* Observability through the driver                                     *)

let test_run_with_recording_sink () =
  let log = Obs.Event.make () in
  (* A report carries no metrics: the caller diffs around its own run. *)
  let before = Obs.Metrics.snapshot () in
  match
    Obs.Event.with_ambient log (fun () ->
        Driver.run ~name:"example2" ~params:[ ("n", 12) ]
          Loopir.Builtin.example2)
  with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } ->
      let m = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      let names =
        List.map (fun (s : Obs.Event.event) -> s.Obs.Event.name)
          (Obs.Event.spans log)
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("span " ^ needle) true (List.mem needle names))
        [
          "run:example2"; "stage:classify"; "stage:materialize";
          "stage:schedule"; "stage:validate"; "stage:execute"; "seq-interp";
          "phase:P1"; "phase:P2-chains"; "phase:P3"; "task";
        ];
      (* Load-imbalance breakdown is present and sane. *)
      (match report.Report.balance with
      | None -> Alcotest.fail "balance missing"
      | Some b ->
          Alcotest.(check int) "one busy slot per thread" 4
            (Array.length b.Report.busy);
          Alcotest.(check bool) "idle fraction in [0,1]" true
            (b.Report.idle_fraction >= 0.0 && b.Report.idle_fraction <= 1.0);
          Alcotest.(check bool) "max >= mean >= min" true
            (b.Report.busy_max >= b.Report.busy_mean
            && b.Report.busy_mean >= b.Report.busy_min);
          Alcotest.(check (list string)) "one executed entry per phase"
            [ "P1"; "P2-chains"; "P3" ]
            (List.filter_map
               (fun p ->
                 Option.map (fun _ -> p.Report.label) p.Report.run)
               report.Report.phases));
      (* The metrics diff shows the layers this run exercised. *)
      let count name =
        Option.value ~default:0 (List.assoc_opt name m.Obs.Metrics.counters)
      in
      Alcotest.(check int) "partition point counters cover the space" 144
        (count "partition.p1_points" + count "partition.p2_points"
       + count "partition.p3_points");
      (* Earlier runs in this process may have warmed the presburger memo
         tables, in which case the set algebra resolves via memo hits
         without reaching Omega. *)
      let memo_hits =
        List.fold_left
          (fun acc (name, v) ->
            if
              String.starts_with ~prefix:"presburger.memo." name
              && String.ends_with ~suffix:".hits" name
            then acc + v
            else acc)
          0 m.Obs.Metrics.counters
      in
      Alcotest.(check bool) "omega was exercised" true
        (count "omega.is_empty_calls" > 0 || memo_hits > 0);
      (* Balance, per-phase idle and the caller's metrics render in both
         report formats; without [metrics] the report has none. *)
      let text = Report.to_text ~metrics:m report in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("text mentions " ^ needle) true
            (contains ~needle text))
        [
          "domains  : busy max"; "barrier P2-chains"; "rel error";
          "metrics  :"; "partition.chains";
        ];
      Alcotest.(check bool) "no metrics section of its own" false
        (contains ~needle:"metrics  :" (Report.to_text report));
      let json = Json.to_string (Report.to_json ~metrics:m report) in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("json mentions " ^ needle) true
            (contains ~needle json))
        [ "\"balance\":{"; "\"idle_fraction\":"; "\"metrics\":{" ];
      Alcotest.(check bool) "no metrics member of its own" true
        (Json.member "metrics" (Report.to_json report) = None)

let test_null_sink_reports_no_balance_gap () =
  (* With no log attached the run still produces balance (it comes from
     the executor's timers, not from spans). *)
  match run_ex2 () with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } ->
      Alcotest.(check bool) "balance present" true
        (report.Report.balance <> None)

(* Two domains running Driver.run at once must record into the one
   attached log: every event and span of both runs, nothing lost, and
   the log still attached when they return.  A per-call swap of the
   process-wide ambient breaks all three. *)
let test_concurrent_runs_share_one_log () =
  let runs = 20 in
  let options = { Driver.default_options with threads = 1 } in
  let run_all () =
    for _ = 1 to runs do
      match
        Driver.run ~options ~name:"example1"
          ~params:[ ("n1", 10); ("n2", 10) ]
          Loopir.Builtin.example1
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Driver.error_to_string e)
    done
  in
  let span_counts log =
    List.fold_left
      (fun acc (s : Obs.Event.event) ->
        let n = Option.value (List.assoc_opt s.Obs.Event.name acc) ~default:0 in
        (s.Obs.Event.name, n + 1) :: List.remove_assoc s.Obs.Event.name acc)
      [] (Obs.Event.spans log)
    |> List.sort compare
  in
  (* Warm the memo tables, so every recorded run takes the same path. *)
  run_all ();
  let solo = Obs.Event.make () in
  Obs.Event.with_ambient solo run_all;
  let shared = Obs.Event.make () in
  let attached_after_runs =
    Obs.Event.with_ambient shared (fun () ->
        List.iter Domain.join (List.init 2 (fun _ -> Domain.spawn run_all));
        Obs.Event.ambient () == shared)
  in
  Alcotest.(check bool) "solo runs recorded events" true
    (Obs.Event.events solo <> []);
  Alcotest.(check int) "twice the solo events"
    (2 * List.length (Obs.Event.events solo))
    (List.length (Obs.Event.events shared));
  Alcotest.(check (list (pair string int)))
    "twice the solo count of every span name"
    (List.map (fun (name, n) -> (name, 2 * n)) (span_counts solo))
    (span_counts shared);
  Alcotest.(check bool) "the log is still attached when the runs return"
    true attached_after_runs;
  Alcotest.(check bool) "with_ambient detaches it on exit" false
    (Obs.Event.enabled (Obs.Event.ambient ()))

let test_json_parse_roundtrip () =
  match run_ex2 () with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } -> (
      let v = Report.to_json report in
      match Json.parse (Json.to_string_pretty v) with
      | Error m -> Alcotest.fail ("report JSON does not parse: " ^ m)
      | Ok v' ->
          Alcotest.(check bool) "program survives" true
            (Json.member "program" v' = Some (Json.Str "example2"));
          (match Json.member "stages" v' with
          | Some (Json.Obj stages) ->
              Alcotest.(check (list string))
                "stage keys survive"
                [ "classify"; "materialize"; "schedule"; "validate"; "execute" ]
                (List.map fst stages)
          | _ -> Alcotest.fail "stages missing after round-trip");
          Alcotest.(check bool) "balance survives" true
            (Json.member "balance" v' <> None))

let test_balance_degenerate_clamps () =
  (* Zero, negative, or non-finite phase walls must clamp idle fractions
     to [0, 1] — never nan/inf in the report: the balance total and each
     phase's barrier idle, derived from its entry. *)
  Alcotest.(check bool) "empty input has no balance" true
    (Report.balance_of_phases ~threads:4 [] = None);
  let ok x = Float.is_finite x && x >= 0.0 && x <= 1.0 in
  let run (busy, seconds) =
    {
      Report.units = 1;
      domains = Array.length busy;
      seconds;
      busy_seconds = Array.fold_left ( +. ) 0.0 busy;
      alloc_words = 0.0;
    }
  in
  let check_clamped label phases =
    (match Report.balance_of_phases ~threads:4 phases with
    | None -> Alcotest.failf "%s: expected Some balance" label
    | Some b ->
        Alcotest.(check bool) (label ^ ": idle_fraction in [0,1]") true
          (ok b.Report.idle_fraction));
    List.iteri
      (fun k phase ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: phase %d idle in [0,1]" label k)
          true
          (ok (Report.phase_idle (run phase))))
      phases
  in
  check_clamped "zero wall" [ ([| 0.0; 0.0 |], 0.0) ];
  check_clamped "nan wall" [ ([| 1.0 |], Float.nan) ];
  check_clamped "inf wall" [ ([| 1.0 |], Float.infinity) ];
  check_clamped "negative wall" [ ([| 1.0 |], -1.0) ];
  check_clamped "empty busy" [ ([||], 1.0) ];
  check_clamped "mixed"
    [ ([| 0.5; 0.5 |], 1.0); ([| 0.0 |], 0.0); ([| 1.0 |], Float.nan) ];
  List.iter
    (fun (label, phase) ->
      Alcotest.(check (float 0.0)) (label ^ ": phase idle is 0.0") 0.0
        (Report.phase_idle (run phase)))
    [
      ("zero wall", ([| 0.0; 0.0 |], 0.0));
      ("nan wall", ([| 1.0 |], Float.nan));
      ("inf wall", ([| 1.0 |], Float.infinity));
      ("negative wall", ([| 1.0 |], -1.0));
    ];
  Alcotest.(check (float 1e-12)) "half-busy pair idles half" 0.5
    (Report.phase_idle (run ([| 0.5; 0.5 |], 1.0)));
  (* A degenerate-only run reports 0 idle, not nan. *)
  match Report.balance_of_phases ~threads:4 [ ([| 0.0 |], 0.0) ] with
  | Some b ->
      Alcotest.(check (float 0.0)) "degenerate-only idle is 0.0" 0.0
        b.Report.idle_fraction
  | None -> Alcotest.fail "expected Some balance"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}";
      (* a \u escape takes exactly four hex digits *)
      {|"\uZZZZ"|}; {|{"a":"\u12"}|}; {|"\u1_2_"|};
    ];
  List.iter
    (fun (s, expect) ->
      match Json.parse s with
      | Ok v -> Alcotest.(check bool) s true (v = expect)
      | Error m -> Alcotest.failf "%S: %s" s m)
    [
      ("-0.5e2", Json.Float (-50.0));
      ("\"a\\u00e9b\"", Json.Str "a\xc3\xa9b");
      ("[1, [2, {\"x\": null}]]",
       Json.List
         [ Json.Int 1; Json.List [ Json.Int 2; Json.Obj [ ("x", Json.Null) ] ] ]);
    ]

(* ------------------------------------------------------------------ *)
(* GC telemetry in the report                                           *)

let test_gc_telemetry_roundtrip () =
  match run_ex2 () with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok { report; _ } -> (
      Alcotest.(check bool) "per-stage GC deltas recorded" true
        (report.Report.gc <> []);
      Alcotest.(check (list string))
        "gc stages in pipeline order"
        [ "classify"; "materialize"; "schedule"; "validate"; "execute" ]
        (List.map fst report.Report.gc);
      List.iter
        (fun (stage, g) ->
          Alcotest.(check bool) (stage ^ " alloc non-negative") true
            (Obs.Gcstats.allocated_words g >= 0.0))
        report.Report.gc;
      (* the execute stage allocates (result arrays, domain spawns) *)
      (match List.assoc_opt "execute" report.Report.gc with
      | Some g ->
          Alcotest.(check bool) "execute allocates" true
            (Obs.Gcstats.allocated_words g > 0.0)
      | None -> Alcotest.fail "execute missing from gc");
      (* round-trip through the JSON renderer and parser *)
      match Json.parse (Json.to_string_pretty (Report.to_json report)) with
      | Error m -> Alcotest.fail ("report JSON does not parse: " ^ m)
      | Ok v -> (
          match Json.member "gc" v with
          | Some (Json.Obj stages) ->
              Alcotest.(check bool) "gc stages survive" true (stages <> []);
              List.iter
                (fun (stage, g) ->
                  match Json.member "allocated_words" g with
                  | Some (Json.Float f) ->
                      Alcotest.(check bool)
                        (stage ^ " allocated_words non-negative") true
                        (f >= 0.0)
                  | Some (Json.Int n) ->
                      Alcotest.(check bool)
                        (stage ^ " allocated_words non-negative") true (n >= 0)
                  | _ -> Alcotest.failf "%s lacks allocated_words" stage)
                stages;
              (* per-phase allocation is also reported *)
              (match Json.member "phase_profile" v with
              | Some (Json.List (p :: _)) ->
                  Alcotest.(check bool) "phase alloc_words survive" true
                    (Json.member "alloc_words" p <> None)
              | _ -> Alcotest.fail "phase_profile missing")
          | _ -> Alcotest.fail "gc object missing after round-trip"))

(* ------------------------------------------------------------------ *)
(* Decision provenance events                                           *)

module Event = Obs.Event

let find_event ~name evs =
  List.find_opt (fun (e : Event.event) -> e.Event.name = name) evs

let why_of (e : Event.event) =
  match List.assoc_opt "why" e.Event.fields with
  | Some (Event.Str s) -> s
  | _ -> ""

let test_explain_example1_cites_lemma1 () =
  (* The acceptance criterion behind [recpart explain]: classifying
     Example 1 names the REC branch and cites the Lemma 1 preconditions
     (single coupled pair, full-rank A and B). *)
  let log = Event.make () in
  (match
     Event.with_ambient log (fun () -> Driver.classify Loopir.Builtin.example1)
   with
  | Ok plan -> Alcotest.(check string) "rec chosen" "rec" (strategy_of plan)
  | Error e -> Alcotest.fail (Diag.to_string e));
  let evs = Event.events log in
  (match find_event ~name:"choose.rec" evs with
  | Some e ->
      Alcotest.(check string) "partition scope" "partition" e.Event.scope;
      let why = why_of e in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("why cites " ^ needle) true
            (contains ~needle why))
        [ "Lemma 1"; "single coupled reference pair"; "full-rank" ]
  | None -> Alcotest.fail "no choose.rec event");
  (* Algorithm 1 announces its selection with the evidence *)
  (match find_event ~name:"auto.selected" evs with
  | Some e ->
      Alcotest.(check bool) "selected strategy named" true
        (List.assoc_opt "strategy" e.Event.fields = Some (Event.Str "rec"))
  | None -> Alcotest.fail "no auto.selected event");
  (* forcing the strategy goes through the same Lemma 1 gate, which logs
     its acceptance too *)
  let forced = Event.make () in
  (match
     Event.with_ambient forced (fun () ->
         Driver.classify ~strategy:Plan.Rec Loopir.Builtin.example1)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Diag.to_string e));
  match find_event ~name:"choose.rec" (Event.events forced) with
  | Some e ->
      Alcotest.(check string) "partition scope" "partition" e.Event.scope;
      Alcotest.(check bool) "acceptance cites Lemma 1" true
        (contains ~needle:"Lemma 1" (why_of e))
  | None -> Alcotest.fail "no choose.rec event"

let test_rejection_provenance_example3 () =
  (* Example 3 has no full-rank coupled pair: the log must say why REC
     was rejected before the PDM fallback. *)
  let log = Event.make () in
  (match
     Event.with_ambient log (fun () -> Driver.classify Loopir.Builtin.example3)
   with
  | Ok plan -> Alcotest.(check string) "pdm chosen" "pdm" (strategy_of plan)
  | Error e -> Alcotest.fail (Diag.to_string e));
  let evs = Event.events log in
  (match find_event ~name:"choose.reject_rec" evs with
  | Some e ->
      Alcotest.(check string) "partition scope" "partition" e.Event.scope;
      Alcotest.(check bool) "reject carries a reason" true (why_of e <> "")
  | None -> Alcotest.fail "no choose.reject_rec event");
  (match find_event ~name:"choose.pdm" evs with
  | Some e ->
      Alcotest.(check bool) "fallback carries a reason" true (why_of e <> "")
  | None -> Alcotest.fail "no choose.pdm event");
  match find_event ~name:"auto.selected" evs with
  | Some e ->
      Alcotest.(check bool) "fallback strategy named" true
        (List.assoc_opt "strategy" e.Event.fields = Some (Event.Str "pdm"))
  | None -> Alcotest.fail "no auto.selected event"

let test_driver_threads_events_option () =
  (* Driver.run records into the attached ambient log, so the inner
     layers' provenance (dependence tests, partition cardinalities) shows
     up without any explicit plumbing. *)
  let log = Event.make () in
  (match
     Event.with_ambient log (fun () ->
         Driver.run ~name:"example2" ~params:[ ("n", 12) ]
           Loopir.Builtin.example2)
   with
  | Error e -> Alcotest.fail (Driver.error_to_string e)
  | Ok _ -> ());
  let evs = Event.events log in
  let scopes =
    List.sort_uniq compare (List.map (fun (e : Event.event) -> e.Event.scope) evs)
  in
  List.iter
    (fun scope ->
      Alcotest.(check bool) ("scope " ^ scope ^ " present") true
        (List.mem scope scopes))
    [ "depend"; "partition"; "strategy" ];
  match find_event ~name:"cardinality" evs with
  | Some e ->
      let get k =
        match List.assoc_opt k e.Event.fields with
        | Some (Event.Int n) -> n
        | _ -> Alcotest.failf "cardinality lacks %s" k
      in
      Alcotest.(check int) "three sets cover the space" 144
        (get "p1" + get "p2" + get "p3")
  | None -> Alcotest.fail "no cardinality event"

(* ------------------------------------------------------------------ *)
(* The benchmark regression gate                                        *)

module Gate = Pipeline.Gate

(* A synthetic bench document: one program, one run at 4 threads. *)
let bench_doc ?(wrap = true) ~execute_s ~classify_s ~counter () =
  let entry =
    Json.Obj
      [
        ("program", Json.Str "example2");
        ( "runs",
          Json.List
            [
              Json.Obj
                [
                  ("threads", Json.Int 4);
                  ( "stages",
                    Json.Obj
                      [
                        ("execute", Json.Float execute_s);
                        ("classify", Json.Float classify_s);
                      ] );
                  ( "metrics",
                    Json.Obj
                      [ ("counters", Json.Obj [ ("omega.calls", Json.Int counter) ]) ]
                  );
                ];
            ] );
      ]
  in
  if wrap then
    Json.Obj
      [ ("schema_version", Json.Int 1); ("entries", Json.List [ entry ]) ]
  else Json.List [ entry ]

let test_gate_flags_slowed_stage () =
  (* The acceptance criterion: an artificially slowed stage (well above
     the noise floor) must be flagged and would make bench exit 1. *)
  let baseline = bench_doc ~execute_s:0.2 ~classify_s:0.001 ~counter:1000 () in
  let current = bench_doc ~execute_s:0.5 ~classify_s:0.001 ~counter:1000 () in
  match Gate.check ~threshold_pct:25.0 ~baseline ~current () with
  | Error m -> Alcotest.fail m
  | Ok o -> (
      Alcotest.(check int) "all pairs compared" 3 o.Gate.compared;
      match o.Gate.regressions with
      | [ r ] ->
          Alcotest.(check string) "stage named" "stage:execute" r.Gate.what;
          Alcotest.(check string) "program named" "example2" r.Gate.program;
          Alcotest.(check int) "threads named" 4 r.Gate.threads;
          Alcotest.(check bool) "ratio = 2.5" true
            (abs_float (r.Gate.ratio -. 2.5) < 1e-9);
          let text = Gate.to_text ~threshold_pct:25.0 o in
          Alcotest.(check bool) "FAIL in text" true
            (contains ~needle:"FAIL" text);
          Alcotest.(check bool) "stage in text" true
            (contains ~needle:"stage:execute" text)
      | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs))

let test_gate_passes_identity_and_noise () =
  (* Identical documents pass; so does a big ratio on a stage below the
     noise floor in both documents (ms-scale timings are noise). *)
  let baseline = bench_doc ~execute_s:0.2 ~classify_s:0.001 ~counter:1000 () in
  (match Gate.check ~threshold_pct:25.0 ~baseline ~current:baseline () with
  | Ok { Gate.regressions = []; compared = 3 } -> ()
  | Ok o -> Alcotest.failf "identity flagged %d" (List.length o.Gate.regressions)
  | Error m -> Alcotest.fail m);
  let noisy = bench_doc ~execute_s:0.2 ~classify_s:0.004 ~counter:1000 () in
  (match Gate.check ~threshold_pct:25.0 ~baseline ~current:noisy () with
  | Ok { Gate.regressions = []; _ } -> ()
  | Ok _ -> Alcotest.fail "sub-floor stage flagged"
  | Error m -> Alcotest.fail m);
  (* counters are deterministic: a 2x counter growth IS flagged *)
  let busier = bench_doc ~execute_s:0.2 ~classify_s:0.001 ~counter:2000 () in
  match Gate.check ~threshold_pct:25.0 ~baseline ~current:busier () with
  | Ok { Gate.regressions = [ r ]; _ } ->
      Alcotest.(check string) "counter named" "counter:omega.calls" r.Gate.what
  | Ok o -> Alcotest.failf "expected 1 regression, got %d"
              (List.length o.Gate.regressions)
  | Error m -> Alcotest.fail m

let test_gate_schema_tolerance () =
  (* Legacy bare-list baselines still work; bad documents are typed
     errors, and unknown (program, threads) keys are skipped. *)
  let wrapped = bench_doc ~execute_s:0.2 ~classify_s:0.001 ~counter:1000 () in
  let legacy =
    bench_doc ~wrap:false ~execute_s:0.2 ~classify_s:0.001 ~counter:1000 ()
  in
  (match Gate.check ~threshold_pct:25.0 ~baseline:legacy ~current:wrapped () with
  | Ok { Gate.regressions = []; compared = 3 } -> ()
  | Ok _ -> Alcotest.fail "legacy baseline mis-compared"
  | Error m -> Alcotest.fail m);
  (match Gate.entries (Json.Obj [ ("schema_version", Json.Int 99) ]) with
  | Error m ->
      Alcotest.(check bool) "version in message" true
        (contains ~needle:"schema_version" m)
  | Ok _ -> Alcotest.fail "future schema accepted");
  (match Gate.entries (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-document accepted");
  (* a baseline for a different program: nothing compared, nothing flagged *)
  let other =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ( "entries",
          Json.List
            [
              Json.Obj
                [ ("program", Json.Str "other"); ("runs", Json.List []) ];
            ] );
      ]
  in
  match Gate.check ~threshold_pct:25.0 ~baseline:other ~current:wrapped () with
  | Ok { Gate.regressions = []; compared = 0 } -> ()
  | Ok _ -> Alcotest.fail "disjoint programs compared"
  | Error m -> Alcotest.fail m

let test_gate_on_committed_baseline () =
  (* The committed BENCH_pipeline.json must stay parseable by the gate —
     CI diffs fresh runs against it. *)
  (* from the dune sandbox the repo root is a few levels up *)
  let path =
    List.find_opt Sys.file_exists
      [
        "BENCH_pipeline.json"; "../BENCH_pipeline.json";
        "../../BENCH_pipeline.json"; "../../../BENCH_pipeline.json";
      ]
  in
  match path with
  | None -> () (* baseline not visible from the sandbox: nothing to check *)
  | Some path -> begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | Error m -> Alcotest.fail ("baseline does not parse: " ^ m)
    | Ok doc -> (
        (match Json.member "schema_version" doc with
        | Some (Json.Int (1 | 2)) -> ()
        | _ -> Alcotest.fail "baseline lacks a supported schema_version");
        match Gate.check ~threshold_pct:25.0 ~baseline:doc ~current:doc () with
        | Ok { Gate.regressions = []; compared } ->
            Alcotest.(check bool) "baseline self-comparison is non-trivial"
              true (compared > 0)
        | Ok o ->
            Alcotest.failf "self-comparison flagged %d"
              (List.length o.Gate.regressions)
        | Error m -> Alcotest.fail m)
  end

(* ------------------------------------------------------------------ *)
(* Codegen through the pipeline                                         *)

let test_codegen_rec_and_unsupported () =
  (match Driver.classify Loopir.Builtin.example1 with
  | Ok plan -> (
      match Driver.codegen plan ~prog:Loopir.Builtin.example1 with
      | Ok listing ->
          Alcotest.(check bool) "REC listing non-empty" true
            (String.length listing > 0)
      | Error e -> Alcotest.fail (Diag.to_string e))
  | Error e -> Alcotest.fail (Diag.to_string e));
  match Driver.classify ~strategy:Plan.Doacross Loopir.Builtin.example2 with
  | Ok plan -> (
      match Driver.codegen plan ~prog:Loopir.Builtin.example2 with
      | Error (Diag.Unsupported _) -> ()
      | Error e -> Alcotest.fail ("unexpected: " ^ Diag.to_string e)
      | Ok _ -> Alcotest.fail "doacross has no listing")
  | Error e -> Alcotest.fail (Diag.to_string e)

(* ------------------------------------------------------------------ *)
(* Json renderer                                                        *)

let test_json_rendering () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\n");
        ("n", Json.Int (-3));
        ("f", Json.Float 0.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
      ]
  in
  Alcotest.(check string)
    "compact"
    "{\"s\":\"a\\\"b\\n\",\"n\":-3,\"f\":0.5,\"b\":true,\"z\":null,\"l\":[1,2]}"
    (Json.to_string v);
  (* Non-finite floats degrade to null rather than emitting invalid JSON. *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan));
  (* Pretty output keeps the same keys. *)
  let pretty = Json.to_string_pretty v in
  Alcotest.(check bool) "pretty contains key" true
    (contains ~needle:"\"n\": -3" pretty)

let () =
  Alcotest.run "pipeline"
    [
      ( "classify",
        [
          Alcotest.test_case "Algorithm 1 on the builtins" `Quick
            test_classify_builtins;
          Alcotest.test_case "strategy name roundtrip" `Quick
            test_forced_strategy_roundtrip;
          Alcotest.test_case "forced REC outside hypotheses" `Quick
            test_forced_rec_outside_hypotheses;
        ] );
      ( "run",
        [
          Alcotest.test_case "all strategies on example2" `Quick
            test_run_all_strategies_ex2;
          Alcotest.test_case "report contents" `Quick test_run_report_contents;
          Alcotest.test_case "text and JSON rendering" `Quick
            test_run_text_and_json;
          Alcotest.test_case "codegen availability" `Quick
            test_codegen_rec_and_unsupported;
          Alcotest.test_case "splinter blowup degrades to dataflow" `Quick
            test_run_degrades_on_splinter_blowup;
          Alcotest.test_case "a checked run builds one trace" `Quick
            test_run_builds_one_trace;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unbound parameter" `Quick test_unbound_parameter;
          Alcotest.test_case "invalid thread count" `Quick
            test_invalid_thread_count;
          Alcotest.test_case "trace build_result" `Quick
            test_trace_unbound_parameter_result;
          Alcotest.test_case "materialize arity" `Quick
            test_materialize_result_param_arity;
          Alcotest.test_case "overflowing subscript fails typed" `Quick
            test_overflowing_subscript_typed;
          Alcotest.test_case "stable error labels" `Quick
            test_error_labels_stable;
          Alcotest.test_case "errors carry stage timings" `Quick
            test_error_carries_stage_timings;
        ] );
      ( "obs",
        [
          Alcotest.test_case "recording sink through the driver" `Quick
            test_run_with_recording_sink;
          Alcotest.test_case "balance without a sink" `Quick
            test_null_sink_reports_no_balance_gap;
          Alcotest.test_case "GC telemetry round-trips through JSON" `Quick
            test_gc_telemetry_roundtrip;
          Alcotest.test_case "balance clamps degenerate walls" `Quick
            test_balance_degenerate_clamps;
          Alcotest.test_case "concurrent runs share one attached log" `Quick
            test_concurrent_runs_share_one_log;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "example1 cites Lemma 1" `Quick
            test_explain_example1_cites_lemma1;
          Alcotest.test_case "example3 rejection reasons" `Quick
            test_rejection_provenance_example3;
          Alcotest.test_case "driver threads the event log" `Quick
            test_driver_threads_events_option;
        ] );
      ( "gate",
        [
          Alcotest.test_case "flags an artificially slowed stage" `Quick
            test_gate_flags_slowed_stage;
          Alcotest.test_case "identity and noise pass" `Quick
            test_gate_passes_identity_and_noise;
          Alcotest.test_case "schema tolerance" `Quick
            test_gate_schema_tolerance;
          Alcotest.test_case "committed baseline self-check" `Quick
            test_gate_on_committed_baseline;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "parse round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
    ]
