(* recpart — command-line driver for the recurrence-chain partitioner.

   Programs are given either as a builtin name (see `recpart list`) or as a
   path to a mini-Fortran source file.  Symbolic loop bounds are set with
   repeated `-p name=value` options.  Every subcommand goes through the
   pipeline layer (classify → materialize → schedule → execute); `--strategy`
   forces a scheme, `--json` emits the structured report. *)

open Cmdliner

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let load_program spec =
  match List.assoc_opt spec Loopir.Builtin.all with
  | Some p -> p
  | None ->
      if Sys.file_exists spec then begin
        let ic = open_in spec in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        match Loopir.Parser.parse ~name:(Filename.basename spec) src with
        | p -> p
        | exception Loopir.Parser.Error (msg, line) ->
            die "recpart: %s:%d: parse error: %s" spec line msg
      end
      else
        die
          "recpart: unknown program %S (not a builtin — see `recpart list` — \
           and not a file)"
          spec

let params_of_assoc prog assoc =
  List.map
    (fun p ->
      match List.assoc_opt p assoc with
      | Some v -> (p, v)
      | None -> die "recpart: parameter %s not set (use -p %s=<int>)" p p)
    prog.Loopir.Ast.params

let ok_or_die ~stage = function
  | Ok v -> v
  | Error e ->
      die "recpart: %s failed: %s" (Diag.stage_name stage) (Diag.to_string e)

(* ---- common arguments ------------------------------------------------ *)

let prog_arg =
  let doc = "Builtin program name or path to a mini-Fortran file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let param_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some k -> (
        let name = String.sub s 0 k
        and v = String.sub s (k + 1) (String.length s - k - 1) in
        match int_of_string_opt v with
        | Some v -> Ok (String.lowercase_ascii name, v)
        | None -> Error (`Msg "expected NAME=INT"))
    | None -> Error (`Msg "expected NAME=INT")
  in
  let print ppf (n, v) = Format.fprintf ppf "%s=%d" n v in
  Arg.conv (parse, print)

let params_arg =
  let doc = "Bind a symbolic loop bound, e.g. -p n=100 (repeatable)." in
  Arg.(value & opt_all param_conv [] & info [ "p"; "param" ] ~docv:"NAME=INT" ~doc)

let threads_arg =
  let doc = "Number of threads/domains." in
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON file of the run; load it in \
     chrome://tracing or https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- cost-model constants on disk ------------------------------------ *)

let cost_to_json (c : Runtime.Sim.cost) =
  Pipeline.Json.Obj
    [
      ("w_iter", Pipeline.Json.Float c.Runtime.Sim.w_iter);
      ("code_factor", Pipeline.Json.Float c.Runtime.Sim.code_factor);
      ("fork", Pipeline.Json.Float c.Runtime.Sim.fork);
      ("barrier", Pipeline.Json.Float c.Runtime.Sim.barrier);
      ("bound_eval", Pipeline.Json.Float c.Runtime.Sim.bound_eval);
    ]

let cost_of_json j =
  let num k =
    match Pipeline.Json.member k j with
    | Some (Pipeline.Json.Float f) -> Some f
    | Some (Pipeline.Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match
    (num "w_iter", num "code_factor", num "fork", num "barrier",
     num "bound_eval")
  with
  | Some w_iter, Some code_factor, Some fork, Some barrier, Some bound_eval ->
      Ok { Runtime.Sim.w_iter; code_factor; fork; barrier; bound_eval }
  | _ ->
      Error
        "cost file must bind w_iter, code_factor, fork, barrier and \
         bound_eval to numbers"

let load_cost = function
  | None -> None
  | Some path -> (
      let src =
        try read_file path
        with Sys_error m -> die "recpart: cannot read cost file: %s" m
      in
      match Pipeline.Json.parse src with
      | Error m -> die "recpart: %s: invalid JSON: %s" path m
      | Ok j -> (
          match cost_of_json j with
          | Ok c -> Some c
          | Error m -> die "recpart: %s: %s" path m))

let cost_file_arg =
  let doc =
    "Read cost-model constants (as written by $(b,profile --calibrate \
     --cost-out)) from a JSON FILE and predict and size DOALL chunks with \
     them instead of the built-in defaults."
  in
  Arg.(value & opt (some string) None & info [ "cost" ] ~docv:"FILE" ~doc)

let write_trace ?metrics log = function
  | None -> ()
  | Some path ->
      write_file path (Obs.Trace.to_chrome_json ?metrics log);
      Printf.eprintf "trace written to %s (open in ui.perfetto.dev)\n" path

(* The JSON shape for a failed run: the stage that died, the structured
   error, and the wall time of every stage that completed first. *)
let error_json (e : Pipeline.Driver.error) =
  Pipeline.Json.Obj
    [
      ("ok", Pipeline.Json.Bool false);
      ("failed_stage", Pipeline.Json.Str (Diag.stage_name e.Pipeline.Driver.stage));
      ("error", Pipeline.Json.Str (Diag.to_string e.Pipeline.Driver.error));
      ( "stages",
        Pipeline.Json.List
          (List.map
             (fun (label, s) ->
               Pipeline.Json.Obj
                 [
                   ("stage", Pipeline.Json.Str label);
                   ("seconds", Pipeline.Json.Float s);
                 ])
             e.Pipeline.Driver.timings) );
    ]

let strategy_arg =
  let doc =
    "Force a partitioning strategy instead of Algorithm 1 selection. One of "
    ^ String.concat ", "
        (List.map Pipeline.Plan.strategy_name Pipeline.Plan.all_strategies)
    ^ "."
  in
  let sconv =
    Arg.enum
      (List.map
         (fun s -> (Pipeline.Plan.strategy_name s, s))
         Pipeline.Plan.all_strategies)
  in
  Arg.(value & opt (some sconv) None & info [ "s"; "strategy" ] ~docv:"NAME" ~doc)

let classify ?strategy prog =
  ok_or_die ~stage:Diag.Classify (Pipeline.Driver.classify ?strategy prog)

let materialize plan ~prog ~params =
  ok_or_die ~stage:Diag.Materialize
    (Pipeline.Driver.materialize plan ~prog ~params)

let schedule_of conc =
  ok_or_die ~stage:Diag.Schedule (Pipeline.Driver.schedule conc)

(* ---- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "paper examples:";
    List.iter
      (fun (n, _) -> Printf.printf "  %s\n" n)
      (List.filteri (fun i _ -> i < 6) Loopir.Builtin.all);
    print_endline "corpus kernels:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Loopir.Builtin.corpus
  in
  Cmd.v (Cmd.info "list" ~doc:"List builtin programs")
    Term.(const run $ const ())

(* ---- show ------------------------------------------------------------ *)

let show_cmd =
  let run spec =
    let p = load_program spec in
    print_string (Loopir.Pretty.program_to_string p);
    Printf.printf "! parameters: %s\n" (String.concat ", " p.Loopir.Ast.params)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a program")
    Term.(const run $ prog_arg)

(* ---- analyze --------------------------------------------------------- *)

let analyze_cmd =
  let run spec passoc =
    let prog = load_program spec in
    match Pipeline.Driver.analyze prog with
    | Ok a ->
        Printf.printf "perfect nest, depth %d, iteration space:\n  %s\n"
          (Array.length a.Depend.Solve.iters)
          (Format.asprintf "%a" Presburger.Iset.pp a.Depend.Solve.phi);
        Printf.printf "forward dependence relation Rd:\n  %s\n"
          (Format.asprintf "%a" Presburger.Rel.pp a.Depend.Solve.rd);
        (match a.Depend.Solve.pair with
        | Some pr ->
            Printf.printf
              "single coupled pair on array %s: det A = %d, det B = %d%s\n"
              pr.Depend.Depeq.arr (Depend.Depeq.det_a pr)
              (Depend.Depeq.det_b pr)
              (if Depend.Depeq.full_rank pr then " (full rank: Lemma 1 applies)"
               else "")
        | None -> print_endline "no single coupled pair");
        if passoc <> [] then begin
          let params =
            Array.of_list (List.map snd (params_of_assoc prog passoc))
          in
          let ds = Depend.Distance.distances a.Depend.Solve.rd ~params in
          Printf.printf "distance set at %s: %s\n"
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) passoc))
            (String.concat " " (List.map Linalg.Ivec.to_string ds));
          Printf.printf "classification: %s\n"
            (Depend.Distance.class_to_string
               (Depend.Distance.classify a.Depend.Solve.rd
                  ~phi:a.Depend.Solve.phi ~params))
        end
    | Error (Diag.Unsupported _) -> (
        match
          Pipeline.Driver.guarded (fun () -> Depend.Solve.analyze_unified prog)
        with
        | Ok u ->
            Printf.printf
              "imperfect nest / multiple statements: unified space depth %d, \
               %d dependence disjuncts\n"
              u.Depend.Solve.unified.Depend.Space.depth
              (List.length (Presburger.Rel.polys u.Depend.Solve.urd))
        | Error e -> die "recpart: analysis failed: %s" (Diag.to_string e))
    | Error e -> die "recpart: analysis failed: %s" (Diag.to_string e)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Exact dependence analysis")
    Term.(const run $ prog_arg $ params_arg)

(* ---- partition -------------------------------------------------------- *)

let partition_cmd =
  let run spec passoc strategy =
    let prog = load_program spec in
    let plan = classify ?strategy prog in
    Printf.printf "%s: %s\n"
      (match strategy with
      | None -> "Algorithm 1 branch"
      | Some _ -> "forced strategy")
      (Pipeline.Plan.describe plan);
    (match plan with
    | Pipeline.Plan.Rec_chains rp | Pipeline.Plan.Unique_sets { rp; _ } ->
        let three = rp.Core.Partition.three in
        Printf.printf "P1:\n  %s\n"
          (Format.asprintf "%a" Presburger.Iset.pp three.Core.Threeset.p1);
        Printf.printf "P2:\n  %s\n"
          (Format.asprintf "%a" Presburger.Iset.pp three.Core.Threeset.p2);
        Printf.printf "P3:\n  %s\n"
          (Format.asprintf "%a" Presburger.Iset.pp three.Core.Threeset.p3)
    | _ -> ());
    if passoc <> [] || prog.Loopir.Ast.params = [] then begin
      let params = params_of_assoc prog passoc in
      let conc = materialize plan ~prog ~params in
      let at =
        if passoc = [] then ""
        else
          Printf.sprintf "at %s: "
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) passoc))
      in
      match conc with
      | Pipeline.Driver.Rec { c; _ } ->
          Printf.printf
            "%s|P1| = %d, chains = %d (%d pts, longest %d), |P3| = %d\n" at
            (Core.Points.length c.Core.Partition.p1_pts)
            (Core.Chain.n_chains c.Core.Partition.chains)
            (Core.Chain.total_points c.Core.Partition.chains)
            c.Core.Partition.chains.Core.Chain.longest
            (Core.Points.length c.Core.Partition.p3_pts);
          (match c.Core.Partition.theorem_bound with
          | Some b ->
              Printf.printf "Theorem 1: growth %g, chain bound %d\n"
                c.Core.Partition.growth b
          | None -> ())
      | Pipeline.Driver.Fronts d ->
          Printf.printf "%s%d steps over %d instances\n" at
            d.Core.Dataflow.steps
            (Array.length d.Core.Dataflow.trace.Depend.Trace.instances)
      | Pipeline.Driver.Tasks { sched } ->
          Printf.printf "%s%d phases, %d instances\n" at
            (Runtime.Sched.n_phases sched)
            (Runtime.Sched.n_instances sched)
      | Pipeline.Driver.Model { tr } ->
          Printf.printf "%scost model over %d instances (no schedule)\n" at
            (Array.length tr.Depend.Trace.instances)
    end
  in
  Cmd.v (Cmd.info "partition" ~doc:"Run Algorithm 1 and show the partition")
    Term.(const run $ prog_arg $ params_arg $ strategy_arg)

(* ---- codegen ----------------------------------------------------------- *)

let codegen_cmd =
  let run spec strategy =
    let prog = load_program spec in
    let plan = classify ?strategy prog in
    match Pipeline.Driver.codegen plan ~prog with
    | Ok listing -> print_string listing
    | Error e ->
        Printf.printf "! %s: %s\n"
          (Pipeline.Plan.strategy_name (Pipeline.Plan.strategy plan))
          (Diag.to_string e)
  in
  Cmd.v (Cmd.info "codegen" ~doc:"Emit the partitioned pseudo-Fortran")
    Term.(const run $ prog_arg $ strategy_arg)

(* ---- run --------------------------------------------------------------- *)

let run_cmd =
  let json_arg =
    let doc = "Emit the run report as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run spec passoc threads strategy json trace =
    let prog = load_program spec in
    let params = params_of_assoc prog passoc in
    let log = if trace = None then Obs.Event.null else Obs.Event.make () in
    let options = { Pipeline.Driver.default_options with threads; strategy } in
    match
      Obs.Event.with_ambient log (fun () ->
          Pipeline.Driver.run ~options ~name:spec ~params prog)
    with
    | Error e ->
        (* The partial trace still shows where time went before the
           failure. *)
        write_trace log trace;
        if json then begin
          print_endline (Pipeline.Json.to_string_pretty (error_json e));
          exit 1
        end
        else die "recpart: %s" (Pipeline.Driver.error_to_string e)
    | Ok { report; _ } ->
        write_trace ?metrics:report.Pipeline.Report.metrics log trace;
        if json then
          print_endline
            (Pipeline.Json.to_string_pretty (Pipeline.Report.to_json report))
        else print_string (Pipeline.Report.to_text report);
        (match report.Pipeline.Report.legality with
        | Pipeline.Report.Failed _ -> exit 1
        | _ -> ());
        (match report.Pipeline.Report.semantics with
        | Pipeline.Report.Failed _ -> exit 1
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the full pipeline: partition, execute on domains, validate \
          against sequential, and report per-stage timings")
    Term.(const run $ prog_arg $ params_arg $ threads_arg $ strategy_arg
          $ json_arg $ trace_arg)

(* ---- explain ----------------------------------------------------------- *)

let event_value_string = function
  | Obs.Event.Bool b -> string_of_bool b
  | Obs.Event.Int n -> string_of_int n
  | Obs.Event.Float f -> Printf.sprintf "%g" f
  | Obs.Event.Str s -> s

(* The decision log as an indented tree: one block per event, the "why"
   field promoted to the event's own line so the rendering reads as a
   chain of justifications. *)
let render_events log =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (e : Obs.Event.event) ->
      let why = List.assoc_opt "why" e.Obs.Event.fields in
      Printf.bprintf buf "  [%s] %s%s%s\n" e.Obs.Event.scope e.Obs.Event.name
        (match e.Obs.Event.severity with
        | Obs.Event.Warn -> " (warn)"
        | _ -> "")
        (match why with
        | Some v -> ": " ^ event_value_string v
        | None -> "");
      List.iter
        (fun (k, v) ->
          if k <> "why" then
            Printf.bprintf buf "      %-14s %s\n" k (event_value_string v))
        e.Obs.Event.fields)
    (Obs.Event.events log);
  Buffer.contents buf

(* --json replays the JSONL lines through the parser so the array output
   is guaranteed consistent with the --events artifact. *)
let events_json log =
  Pipeline.Json.List
    (String.split_on_char '\n' (Obs.Event.to_jsonl log)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Pipeline.Json.parse line with
           | Ok j -> j
           | Error e -> die "recpart: internal: event line unparsable: %s" e))

let explain_cmd =
  let json_arg =
    let doc = "Emit the decision log as a JSON array instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let events_arg =
    let doc = "Also write the decision log as JSONL (one event per line)." in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let run spec passoc strategy json events_path =
    let prog = load_program spec in
    let log = Obs.Event.make () in
    let before = Obs.Metrics.snapshot () in
    let outcome =
      Obs.Event.with_ambient log (fun () ->
          let plan = Pipeline.Driver.classify ?strategy prog in
          (* Materialization decisions (cardinalities, Theorem 1 evidence)
             only exist once parameters are bound; add them when bindings
             were given or none are needed. *)
          (match plan with
          | Ok p when passoc <> [] || prog.Loopir.Ast.params = [] ->
              let params = params_of_assoc prog passoc in
              ignore (Pipeline.Driver.materialize p ~prog ~params)
          | _ -> ());
          plan)
    in
    (* How much set algebra the decision burned, and how much of it was
       answered from the presburger memo tables. *)
    let analysis_metrics =
      Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ())
      |> Obs.Metrics.filter (fun name ->
             List.exists
               (fun p -> String.starts_with ~prefix:p name)
               [ "presburger."; "omega."; "iset." ])
    in
    (match events_path with
    | Some path ->
        write_file path (Obs.Event.to_jsonl log);
        Printf.eprintf "decision log written to %s (JSONL)\n" path
    | None -> ());
    if json then begin
      let plan_json =
        match outcome with
        | Ok plan ->
            [
              ("ok", Pipeline.Json.Bool true);
              ( "strategy",
                Pipeline.Json.Str
                  (Pipeline.Plan.strategy_name (Pipeline.Plan.strategy plan))
              );
              ("describe", Pipeline.Json.Str (Pipeline.Plan.describe plan));
            ]
        | Error e ->
            [
              ("ok", Pipeline.Json.Bool false);
              ("error", Pipeline.Json.Str (Diag.to_string e));
            ]
      in
      print_endline
        (Pipeline.Json.to_string_pretty
           (Pipeline.Json.Obj
              (("program", Pipeline.Json.Str spec)
               :: plan_json
              @ [
                  ("events", events_json log);
                  ("metrics", Pipeline.Report.metrics_json analysis_metrics);
                ])))
    end
    else begin
      (match outcome with
      | Ok plan ->
          Printf.printf "%s: %s branch — %s\n" spec
            (Pipeline.Plan.strategy_name (Pipeline.Plan.strategy plan))
            (Pipeline.Plan.describe plan)
      | Error e ->
          Printf.printf "%s: no strategy applies — %s\n" spec
            (Diag.to_string e));
      print_endline "decision log:";
      print_string (render_events log);
      if not (Obs.Metrics.is_empty analysis_metrics) then begin
        print_endline "analysis metrics:";
        List.iter
          (fun (name, v) -> Printf.printf "  %-32s %d\n" name v)
          analysis_metrics.Obs.Metrics.counters
      end
    end;
    if Result.is_error outcome then exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a partitioning decision: re-run strategy selection (and \
          materialization when parameters are bound) with the decision \
          event log recording, and print which dependence tests fired, \
          why the strategy was chosen or rejected, and the partition \
          evidence")
    Term.(const run $ prog_arg $ params_arg $ strategy_arg $ json_arg
          $ events_arg)

(* ---- profile ----------------------------------------------------------- *)

let critpath_json (cp : Obs.Critpath.t) ~theorem_bound =
  let module J = Pipeline.Json in
  let opt f = function None -> J.Null | Some v -> f v in
  let task_json (t : Obs.Critpath.task) =
    J.Obj
      [
        ( "kind",
          J.Str
            (match t.Obs.Critpath.kind with
            | Obs.Critpath.Chain -> "chain"
            | Obs.Critpath.Block -> "block") );
        ("id", J.Int t.Obs.Critpath.id);
        ("len", J.Int t.Obs.Critpath.len);
        ("tid", J.Int t.Obs.Critpath.tid);
        ("start_ns", J.Int (Int64.to_int t.Obs.Critpath.start_ns));
        ("dur_ns", J.Int (Int64.to_int t.Obs.Critpath.dur_ns));
      ]
  in
  let barrier_json (b : Obs.Critpath.barrier) =
    J.Obj
      [
        ("label", J.Str b.Obs.Critpath.label);
        ("wall_ns", J.Int (Int64.to_int b.Obs.Critpath.wall_ns));
        ("tasks", J.Int b.Obs.Critpath.n_tasks);
        ("domains", J.Int b.Obs.Critpath.n_domains);
        ("busy_ns", J.Int (Int64.to_int b.Obs.Critpath.busy_ns));
        ("idle_fraction", J.Float b.Obs.Critpath.idle_fraction);
        ("crit_ns", J.Int (Int64.to_int b.Obs.Critpath.crit_ns));
        ("longest_len", J.Int b.Obs.Critpath.longest_len);
        ("straggler", opt task_json b.Obs.Critpath.straggler);
      ]
  in
  J.Obj
    [
      ("threads", J.Int cp.Obs.Critpath.threads);
      ("wall_ns", J.Int (Int64.to_int cp.Obs.Critpath.wall_ns));
      ("critical_ns", J.Int (Int64.to_int cp.Obs.Critpath.critical_ns));
      ("critical_fraction", J.Float cp.Obs.Critpath.critical_fraction);
      ( "longest_chain",
        opt (fun l -> J.Int l) cp.Obs.Critpath.longest_chain );
      ("theorem_bound", opt (fun b -> J.Int b) theorem_bound);
      ("barriers", J.List (List.map barrier_json cp.Obs.Critpath.barriers));
    ]

(* Calibration samples: the schedule's size structure zipped positionally
   with the executor's measured per-phase busy/wall profile (both walk the
   same phase list). *)
let profile_cmd =
  let html_arg =
    let doc =
      "Write a self-contained HTML report (stage waterfall, per-domain \
       timeline, span tree, metrics tables)."
    in
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let sched_arg =
    let doc =
      "Print the scheduler profile: critical path through the barriers, \
       per-barrier straggler attribution, and the measured longest chain \
       vs the Theorem 1 bound."
    in
    Arg.(value & flag & info [ "sched" ] ~doc)
  in
  let sched_json_arg =
    let doc =
      "Write the scheduler profile (critical path, straggler table, \
       predicted-vs-actual report) as JSON to FILE."
    in
    Arg.(value & opt (some string) None
         & info [ "sched-json" ] ~docv:"FILE" ~doc)
  in
  let calibrate_arg =
    let doc =
      "Fit the cost-model constants ({!Runtime.Sim.calibrate}) from this \
       run's measured phases and print them; combine with $(b,--cost-out) \
       to persist."
    in
    Arg.(value & flag & info [ "calibrate" ] ~doc)
  in
  let cost_out_arg =
    let doc = "Write the calibrated cost constants to FILE as JSON." in
    Arg.(value & opt (some string) None
         & info [ "cost-out" ] ~docv:"FILE" ~doc)
  in
  let run spec passoc threads strategy trace html sched_prof sched_json
      calibrate cost_out cost_file =
    let prog = load_program spec in
    let params = params_of_assoc prog passoc in
    let log = Obs.Event.make () in
    let options =
      {
        Pipeline.Driver.default_options with
        threads;
        strategy;
        sim_cost = load_cost cost_file;
      }
    in
    let write_html ?metrics () =
      match html with
      | None -> ()
      | Some path ->
          write_file path
            (Obs.Html.render ?metrics ~title:("recpart profile: " ^ spec) log);
          Printf.eprintf "HTML report written to %s\n" path
    in
    match
      Obs.Event.with_ambient log (fun () ->
          Pipeline.Driver.run ~options ~name:spec ~params prog)
    with
    | Error e ->
        write_trace log trace;
        write_html ();
        die "recpart: %s" (Pipeline.Driver.error_to_string e)
    | Ok ({ report; _ } as outcome) ->
        print_string (Obs.Trace.to_text log);
        print_newline ();
        print_string (Pipeline.Report.to_text report);
        let theorem_bound =
          Option.bind report.Pipeline.Report.stats (fun st ->
              st.Pipeline.Report.theorem_bound)
        in
        if sched_prof || sched_json <> None then begin
          let cp =
            Obs.Critpath.of_spans ~threads ?theorem_bound
              (Obs.Event.spans log)
          in
          if sched_prof then begin
            print_newline ();
            print_string (Obs.Critpath.to_text ?theorem_bound cp)
          end;
          match sched_json with
          | None -> ()
          | Some path ->
              write_file path
                (Pipeline.Json.to_string_pretty
                   (Pipeline.Json.Obj
                      [
                        ("program", Pipeline.Json.Str spec);
                        ("critpath", critpath_json cp ~theorem_bound);
                        ("report", Pipeline.Report.to_json report);
                      ]));
              Printf.eprintf "scheduler profile written to %s\n" path
        end;
        if calibrate then begin
          match
            Runtime.Sim.calibrate (Pipeline.Driver.calibration_samples outcome)
          with
          | None ->
              prerr_endline
                "calibration failed: the run measured no executed work \
                 (nothing to fit)"
          | Some c ->
              Printf.printf
                "calibrated cost (seconds): w_iter=%.3e fork=%.3e \
                 barrier=%.3e bound_eval=%.3e code_factor=%.2f\n"
                c.Runtime.Sim.w_iter c.Runtime.Sim.fork
                c.Runtime.Sim.barrier c.Runtime.Sim.bound_eval
                c.Runtime.Sim.code_factor;
              (match cost_out with
              | None -> ()
              | Some path ->
                  write_file path
                    (Pipeline.Json.to_string_pretty (cost_to_json c));
                  Printf.eprintf "cost constants written to %s\n" path)
        end;
        write_trace ?metrics:report.Pipeline.Report.metrics log trace;
        write_html ?metrics:report.Pipeline.Report.metrics ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the pipeline with span recording on: print the per-domain \
          span tree and the report (with load-imbalance, prediction and \
          metrics sections); $(b,--sched) adds the critical-path/straggler \
          profile, $(b,--calibrate) fits the cost model from the measured \
          run, and $(b,--trace)/$(b,--html) write Chrome-trace/HTML \
          artifacts")
    Term.(const run $ prog_arg $ params_arg $ threads_arg $ strategy_arg
          $ trace_arg $ html_arg $ sched_arg
          $ sched_json_arg $ calibrate_arg $ cost_out_arg $ cost_file_arg)

(* ---- batch / serve ----------------------------------------------------- *)

let domains_arg =
  let doc =
    "Domains in the service's one pool: they drain the request queue and \
     run each request's execution chunks and set-algebra jobs."
  in
  Arg.(value & opt int 4 & info [ "domains" ] ~doc)

let cache_arg =
  let doc = "Result-cache capacity (content-addressed plan/report entries)." in
  Arg.(value & opt int 512 & info [ "cache" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in seconds (a request may override it \
     with its own deadline_s field)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let no_check_arg =
  let doc = "Skip legality/semantics validation (faster batch throughput)." in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let slow_ms_arg =
  let doc =
    "Log requests slower than this many milliseconds to stderr, with their \
     stage timings and presburger-memo delta."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let flight_dir_arg =
  let doc =
    "Directory for flight-recorder postmortems: a request failing with a \
     deadline/pipeline/panic error dumps its recent spans and events there \
     as JSONL."
  in
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR" ~doc)

let svc_config ?store_dir ~domains ~cache ~threads ~deadline ~no_check
    ~slow_ms ~flight_dir () =
  {
    Svc.Service.default_config with
    domains;
    cache_capacity = cache;
    threads;
    check = not no_check;
    deadline_s = deadline;
    slow_ms;
    flight_dir;
    store_dir;
  }

(* One response record per input line, errors as records: an unparsable
   line gets a synthetic id from its (1-based) line number so responses
   stay attributable. *)
let response_of_line svc ~lineno line =
  match Svc.Proto.request_of_line line with
  | Error { Svc.Proto.line_id; message } ->
      let id =
        match line_id with
        | Some id -> id
        | None -> Printf.sprintf "line-%d" lineno
      in
      Svc.Proto.error_response ~id (Svc.Proto.Bad_request message)
  | Ok req -> Svc.Service.run_one svc req

let batch_summary responses stats pool =
  let n = List.length responses in
  let errors = List.length (List.filter (fun r -> not (Svc.Proto.ok r)) responses) in
  let hits =
    List.length (List.filter (fun r -> r.Svc.Proto.cached) responses)
  in
  Printf.eprintf
    "batch: %d requests, %d ok, %d errors, %d cache hits (%.0f%% hit rate), \
     cache size %d/%d\n"
    n (n - errors) errors hits
    (if n = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int n)
    stats.Svc.Cache.size stats.Svc.Cache.capacity;
  (* The pool is created once per service: its spawn count is the pool
     size, never the request count (CI smoke greps this line). *)
  Printf.eprintf "pool: domains=%d spawned=%d requests=%d\n"
    (Runtime.Workers.domains pool)
    (Runtime.Workers.spawned pool)
    n;
  (* Request-level cache hits above; this line is the set-algebra layer
     below it (CI asserts the hit count is non-zero on the batch corpus). *)
  let t = Presburger.Hc.totals () in
  Printf.eprintf
    "presburger-memo: hits=%d misses=%d evictions=%d (%.0f%% hit rate)\n"
    t.Presburger.Hc.hits t.Presburger.Hc.misses t.Presburger.Hc.evictions
    (let calls = t.Presburger.Hc.hits + t.Presburger.Hc.misses in
     if calls = 0 then 0.0
     else 100.0 *. float_of_int t.Presburger.Hc.hits /. float_of_int calls);
  (* Per-request processing latency over the whole batch, from the
     svc.request.latency_us histogram the service observes. *)
  (match List.assoc_opt "svc.request.latency_us" (Obs.Histogram.snapshot ()) with
  | Some s when s.Obs.Histogram.count > 0 ->
      Printf.eprintf
        "latency: p50=%.0fus p90=%.0fus p99=%.0fus over %d requests (%.0f%% \
         cache hit rate)\n"
        (Obs.Histogram.percentile s 0.5)
        (Obs.Histogram.percentile s 0.9)
        (Obs.Histogram.percentile s 0.99)
        s.Obs.Histogram.count
        (if n = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int n)
  | _ -> ())

let batch_cmd =
  let file_arg =
    let doc = "JSONL request file (one request object per line)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.jsonl" ~doc)
  in
  let out_arg =
    let doc = "Write JSONL responses here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run file out domains cache threads deadline no_check trace slow_ms
      flight_dir =
    let config =
      svc_config ~domains ~cache ~threads ~deadline ~no_check ~slow_ms
        ~flight_dir ()
    in
    let log = if trace = None then Obs.Event.null else Obs.Event.make () in
    Obs.Event.with_ambient log @@ fun () ->
    let svc = Svc.Service.create ~config () in
    let ic = open_in file in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    let lines =
      List.rev !lines
      |> List.mapi (fun i l -> (i + 1, l))
      |> List.filter (fun (_, l) -> String.trim l <> "")
    in
    (* Parse up front so malformed lines become error records without
       occupying the pool; well-formed requests go through the batch
       (pool + cache) path. *)
    let items =
      List.map
        (fun (lineno, line) ->
          match Svc.Proto.request_of_line line with
          | Ok req -> `Req (lineno, req)
          | Error { Svc.Proto.line_id; message } ->
              let id =
                match line_id with
                | Some id -> id
                | None -> Printf.sprintf "line-%d" lineno
              in
              `Bad (Svc.Proto.error_response ~id (Svc.Proto.Bad_request message)))
        lines
    in
    let reqs = List.filter_map (function `Req (_, r) -> Some r | `Bad _ -> None) items in
    let responses = Svc.Service.batch svc reqs in
    Svc.Service.shutdown svc;
    (* Re-interleave in input order. *)
    let rec merge items resps acc =
      match (items, resps) with
      | [], [] -> List.rev acc
      | `Bad r :: rest, resps -> merge rest resps (r :: acc)
      | `Req _ :: rest, r :: resps -> merge rest resps (r :: acc)
      | `Req _ :: _, [] | [], _ :: _ -> assert false
    in
    let ordered = merge items responses [] in
    let oc = match out with None -> stdout | Some p -> open_out p in
    List.iter
      (fun r -> output_string oc (Svc.Proto.response_to_line r ^ "\n"))
      ordered;
    if out <> None then close_out oc;
    write_trace log trace;
    batch_summary ordered (Svc.Service.cache_stats svc) (Svc.Service.pool svc)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze a JSONL request corpus on a domain pool with a \
          content-addressed result cache: one response record per request \
          (malformed requests become error records, the batch always \
          completes), summary statistics on stderr")
    Term.(const run $ file_arg $ out_arg $ domains_arg $ cache_arg
          $ threads_arg $ deadline_arg $ no_check_arg $ trace_arg
          $ slow_ms_arg $ flight_dir_arg)

let serve_cmd =
  let listen_arg =
    let doc =
      "Serve over a socket instead of stdin/stdout: $(b,unix:PATH), \
       $(b,tcp:HOST:PORT) or $(b,HOST:PORT) (TCP port 0 binds an \
       ephemeral port, reported on stderr).  One accept loop feeds the \
       shared worker pool; each connection speaks pipelined JSONL."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let store_dir_arg =
    let doc =
      "Durable result store directory: cached analyses are appended to \
       checksummed per-shard logs under this directory and reloaded on \
       the next start, so warm state survives restarts."
    in
    Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)
  in
  let max_conns_arg =
    let doc = "Maximum concurrent connections (excess are rejected with an \
               overloaded record)." in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let drain_timeout_arg =
    let doc =
      "Grace period in seconds for in-flight requests when draining \
       (SIGTERM/SIGINT)."
    in
    Arg.(value & opt float 10.0 & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let queue_arg =
    let doc =
      "Bounded pool queue capacity; when full, socket requests are shed \
       with a typed overloaded record instead of queueing unboundedly."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let run listen store_dir max_conns drain_timeout queue domains cache
      threads deadline no_check slow_ms flight_dir =
    let config =
      {
        (svc_config ?store_dir ~domains ~cache ~threads ~deadline ~no_check
           ~slow_ms ~flight_dir ())
        with
        queue_capacity = queue;
      }
    in
    let svc = Svc.Service.create ~config () in
    (match listen with
    | None ->
        (* legacy stdin/stdout mode *)
        let lineno = ref 0 in
        (try
           while true do
             let line = input_line stdin in
             incr lineno;
             if String.trim line <> "" then begin
               let r = response_of_line svc ~lineno:!lineno line in
               print_endline (Svc.Proto.response_to_line r);
               flush stdout
             end
           done
         with End_of_file -> ())
    | Some addr_str -> (
        match Net.Addr.parse addr_str with
        | Error e ->
            Printf.eprintf "recpart serve: --listen %s: %s\n" addr_str e;
            exit 2
        | Ok addr ->
            let server_config =
              {
                Net.Server.default_config with
                max_conns;
                drain_timeout_s = drain_timeout;
              }
            in
            let server = Net.Server.start ~config:server_config svc addr in
            Printf.eprintf
              "recpart serve: listening on %s (domains=%d queue=%d \
               store=%s)\n\
               %!"
              (Net.Addr.to_string (Net.Server.addr server))
              domains queue
              (Option.value store_dir ~default:"none");
            let stopped = ref false in
            let on_signal _ =
              stopped := true;
              Net.Server.drain server
            in
            Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
            Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
            (* Thread.delay (not a bare join) so pending signals are
               delivered promptly to this main thread. *)
            while not !stopped do
              Thread.delay 0.1
            done;
            Net.Server.wait server;
            Printf.eprintf "recpart serve: drained, shutting down\n%!"));
    Svc.Service.shutdown svc
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve analyses as a concurrent socket server ($(b,--listen), \
          pipelined JSONL per connection, graceful drain on \
          SIGTERM/SIGINT, optional durable result store via \
          $(b,--store-dir)) or over stdin/stdout (default): one JSONL \
          request per line, one response record per line, sharing the \
          content-addressed cache across requests")
    Term.(const run $ listen_arg $ store_dir_arg $ max_conns_arg
          $ drain_timeout_arg $ queue_arg $ domains_arg $ cache_arg
          $ threads_arg $ deadline_arg $ no_check_arg $ slow_ms_arg
          $ flight_dir_arg)

(* ---- metrics ----------------------------------------------------------- *)

let metrics_cmd =
  let corpus_arg =
    let doc =
      "Optional JSONL request corpus to run through the service first, so \
       the snapshot reflects real traffic instead of an idle process."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.jsonl" ~doc)
  in
  let json_arg =
    let doc = "Print the JSON snapshot instead of Prometheus text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let health_arg =
    let doc =
      "Print the health report (pool/queue/cache liveness) instead of \
       metrics; exits non-zero when unhealthy."
    in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let connect_arg =
    let doc =
      "Query a live server (started with $(b,recpart serve --listen)) at \
       this address over its socket protocol instead of sampling a fresh \
       in-process service — the exit-code health probe for liveness \
       checks ($(b,--health))."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  (* Remote flavor of the metrics/health op: same protocol records, but
     over the wire against a running server. *)
  let run_connect addr_str json health =
    let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
    match Net.Addr.parse addr_str with
    | Error e -> fail "recpart metrics: --connect %s: %s" addr_str e
    | Ok addr -> (
        match Net.Client.connect addr with
        | Error e -> fail "recpart metrics: %s" e
        | Ok client -> (
            let mode = if health then Svc.Proto.Health else Svc.Proto.Metrics in
            let req =
              Svc.Proto.request ~mode ~id:"metrics-cli"
                ~name:(Svc.Proto.mode_name mode) (Svc.Proto.Src "")
            in
            let resp = Net.Client.request client req in
            Net.Client.close client;
            match resp with
            | Error e -> fail "recpart metrics: %s" e
            | Ok j -> (
                let member k = Pipeline.Json.member k j in
                match (health, member "healthy") with
                | true, Some (Pipeline.Json.Bool ok) ->
                    let merged =
                      match member "health" with
                      | Some (Pipeline.Json.Obj fields) ->
                          Pipeline.Json.Obj
                            (("healthy", Pipeline.Json.Bool ok) :: fields)
                      | _ -> j
                    in
                    print_endline (Pipeline.Json.to_string_pretty merged);
                    if not ok then exit 1
                | true, _ -> fail "recpart metrics: malformed health response"
                | false, _ -> (
                    match (json, member "metrics", member "prometheus") with
                    | true, Some snapshot, _ ->
                        print_endline
                          (Pipeline.Json.to_string_pretty snapshot)
                    | false, _, Some (Pipeline.Json.Str prom) ->
                        print_string prom
                    | _ ->
                        fail "recpart metrics: malformed metrics response"))))
  in
  let run corpus json health connect domains cache threads deadline no_check =
    match connect with
    | Some addr_str -> run_connect addr_str json health
    | None ->
    let config =
      svc_config ~domains ~cache ~threads ~deadline ~no_check ~slow_ms:None
        ~flight_dir:None ()
    in
    let svc = Svc.Service.create ~config () in
    (match corpus with
    | None -> ()
    | Some file ->
        let ic = open_in file in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        let reqs =
          List.rev !lines
          |> List.filter_map (fun l ->
                 if String.trim l = "" then None
                 else Result.to_option (Svc.Proto.request_of_line l))
        in
        let resps = Svc.Service.batch svc reqs in
        Printf.eprintf "corpus: %d requests, %d ok\n"
          (List.length resps)
          (List.length (List.filter Svc.Proto.ok resps)));
    let mode = if health then Svc.Proto.Health else Svc.Proto.Metrics in
    let req =
      Svc.Proto.request ~mode ~id:"metrics-cli"
        ~name:(Svc.Proto.mode_name mode) (Svc.Proto.Src "")
    in
    let resp = Svc.Service.run_one svc req in
    Svc.Service.shutdown svc;
    match resp.Svc.Proto.body with
    | Svc.Proto.Stats { prometheus; snapshot } ->
        if json then print_endline (Pipeline.Json.to_string_pretty snapshot)
        else print_string prometheus
    | Svc.Proto.Healthy { ok; detail } ->
        let j =
          match detail with
          | Pipeline.Json.Obj fields ->
              Pipeline.Json.Obj (("healthy", Pipeline.Json.Bool ok) :: fields)
          | j -> j
        in
        print_endline (Pipeline.Json.to_string_pretty j);
        if not ok then exit 1
    | _ ->
        prerr_endline "unexpected response to introspection request";
        exit 2
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Print the live-telemetry snapshot the service's $(b,metrics) \
          protocol op exposes — Prometheus text (default), the JSON \
          snapshot ($(b,--json)), or the health report ($(b,--health)); \
          optionally after replaying a request corpus, or against a live \
          server over its socket ($(b,--connect))")
    Term.(const run $ corpus_arg $ json_arg $ health_arg $ connect_arg
          $ domains_arg $ cache_arg $ threads_arg $ deadline_arg
          $ no_check_arg)

(* ---- simulate ---------------------------------------------------------- *)

let simulate_cmd =
  let json_arg =
    let doc =
      "Emit the full cost breakdown as JSON: per-phase predicted times, \
       totals, sequential baseline and speedup at every thread count."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run spec passoc max_threads strategy json cost_file =
    let module J = Pipeline.Json in
    let prog = load_program spec in
    let params = params_of_assoc prog passoc in
    let plan = classify ?strategy prog in
    let conc = materialize plan ~prog ~params in
    match conc with
    | Pipeline.Driver.Model { tr } ->
        let makespans =
          List.init max_threads (fun i ->
              let p = i + 1 in
              ( p,
                (Baselines.Doacross.pipeline tr ~threads:p ~w_iter:1.0
                   ~delay_factor:0.5)
                  .Baselines.Doacross.makespan ))
        in
        if json then
          print_endline
            (J.to_string_pretty
               (J.Obj
                  [
                    ("program", J.Str spec);
                    ("model", J.Str "doacross-pipeline");
                    ( "threads",
                      J.List
                        (List.map
                           (fun (p, m) ->
                             J.Obj
                               [
                                 ("threads", J.Int p);
                                 ("makespan", J.Float m);
                               ])
                           makespans) );
                  ]))
        else begin
          Printf.printf "threads  makespan (DOACROSS pipeline model)\n";
          List.iter
            (fun (p, m) -> Printf.printf "   %2d    %.1f\n" p m)
            makespans
        end
    | _ ->
        let sched = schedule_of conc in
        let n = Runtime.Sched.n_instances sched in
        let cost, cost_source =
          match load_cost cost_file with
          | Some c -> (c, "calibrated")
          | None -> (Runtime.Sim.with_factor 0.8, "default")
        in
        if json then begin
          let at_threads p =
            let phases = Runtime.Sim.predict cost ~threads:p sched in
            let total = List.fold_left (fun a (_, t) -> a +. t) 0.0 phases in
            J.Obj
              [
                ("threads", J.Int p);
                ( "phases",
                  J.List
                    (List.map
                       (fun (label, t) ->
                         J.Obj
                           [ ("label", J.Str label); ("seconds", J.Float t) ])
                       phases) );
                ("total_seconds", J.Float total);
                ( "speedup",
                  J.Float (Runtime.Sim.speedup cost ~threads:p ~n_seq:n sched)
                );
              ]
          in
          print_endline
            (J.to_string_pretty
               (J.Obj
                  [
                    ("program", J.Str spec);
                    ("model", J.Str "smp");
                    ("cost_source", J.Str cost_source);
                    ("cost", cost_to_json cost);
                    ("n_instances", J.Int n);
                    ("seq_seconds", J.Float (Runtime.Sim.seq_time cost n));
                    ( "threads",
                      J.List
                        (List.init max_threads (fun i -> at_threads (i + 1)))
                    );
                  ]))
        end
        else begin
          Printf.printf "threads  speedup (simulated SMP, %s cost, code \
                         factor %.2f)\n"
            cost_source cost.Runtime.Sim.code_factor;
          for p = 1 to max_threads do
            Printf.printf "   %2d    %.2f\n" p
              (Runtime.Sim.speedup cost ~threads:p ~n_seq:n sched)
          done
        end
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Predicted speedup on the SMP cost model")
    Term.(const run $ prog_arg $ params_arg $ threads_arg $ strategy_arg
          $ json_arg $ cost_file_arg)

(* ---- viz ---------------------------------------------------------------- *)

let viz_cmd =
  let fmt_arg =
    let doc = "Output format: dot (dependence graph), chains (DOT of \
               recurrence chains), ascii (2-D partition grid)." in
    Arg.(value & opt (enum [ ("dot", `Dot); ("chains", `Chains); ("ascii", `Ascii) ]) `Dot
         & info [ "f"; "format" ] ~doc)
  in
  let run spec passoc fmt =
    let prog = load_program spec in
    match fmt with
    | `Dot ->
        let params = params_of_assoc prog passoc in
        let tr = Depend.Trace.build prog ~params in
        print_string (Codegen.Viz.dot_of_trace tr)
    | `Chains -> (
        match classify prog with
        | Pipeline.Plan.Rec_chains _ as plan -> (
            let params = params_of_assoc prog passoc in
            match materialize plan ~prog ~params with
            | Pipeline.Driver.Rec { c; _ } ->
                print_string
                  (Codegen.Viz.dot_of_chains c.Core.Partition.chains)
            | _ -> assert false)
        | _ -> prerr_endline "chains are only available for REC plans")
    | `Ascii -> (
        match classify prog with
        | Pipeline.Plan.Rec_chains rp
          when Array.length rp.Core.Partition.simple.Depend.Solve.iters = 2 ->
            let params =
              Array.of_list (List.map snd (params_of_assoc prog passoc))
            in
            (* Use the bounding box of the iteration space. *)
            let pts =
              Presburger.Iset.points
                (Presburger.Iset.bind_params
                   rp.Core.Partition.simple.Depend.Solve.phi params)
            in
            let xs = List.map (fun p -> p.(0)) pts
            and ys = List.map (fun p -> p.(1)) pts in
            let mn l = List.fold_left min max_int l
            and mx l = List.fold_left max min_int l in
            print_string
              (Codegen.Viz.ascii_three_sets rp.Core.Partition.three ~params
                 ~x_range:(mn xs, mx xs) ~y_range:(mn ys, mx ys))
        | _ -> prerr_endline "ascii view needs a 2-D REC plan")
  in
  Cmd.v
    (Cmd.info "viz" ~doc:"Visualize dependences, chains, or the partition")
    Term.(const run $ prog_arg $ params_arg $ fmt_arg)

let main =
  let doc = "recurrence-chain partitioning of non-uniform dependence loops" in
  Cmd.group
    (Cmd.info "recpart" ~version:"1.0" ~doc)
    [
      list_cmd; show_cmd; analyze_cmd; partition_cmd; codegen_cmd; run_cmd;
      explain_cmd; profile_cmd; simulate_cmd; viz_cmd; batch_cmd; serve_cmd;
      metrics_cmd;
    ]

let () = exit (Cmd.eval main)
