let ( let* ) = Result.bind

type materialized =
  | Rec of {
      rp : Core.Partition.rec_plan;
      c : Core.Partition.concrete_rec;
    }
  | Fronts of Core.Dataflow.concrete
  | Tasks of { sched : Runtime.Sched.t }
  | Model of { tr : Depend.Trace.t }

type error = {
  stage : Diag.stage;
  error : Diag.error;
  timings : (string * float) list;
}

let error_to_string { stage; error; _ } =
  Printf.sprintf "%s: %s" (Diag.stage_name stage) (Diag.to_string error)

(* Runs [f], threading typed failures and the known library exceptions
   (symbolic blowup, dataflow step limit, unsupported shapes, checked
   arithmetic overflow) into the result. *)
let guarded f =
  match f () with
  | v -> Ok v
  | exception Diag.Error e -> Error e
  | exception Presburger.Omega.Blowup m -> Error (Diag.Set_blowup m)
  | exception Core.Dataflow.Did_not_terminate n ->
      Error (Diag.Dataflow_step_limit n)
  | exception Invalid_argument m -> Error (Diag.Unsupported m)
  | exception Depend.Space.Unsupported m -> Error (Diag.Unsupported m)
  | exception Numeric.Safeint.Overflow -> Error Diag.Int_overflow

(* ---- individual stages ---------------------------------------------- *)

let analyze = Strategy.analyze_simple

let classify ?strategy prog =
  Result.join
    (guarded (fun () ->
         match strategy with
         | None -> Strategy.auto prog
         | Some s -> Strategy.plan s prog))

let check_params prog ~params =
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        Diag.fail (Diag.Unbound_parameter p))
    prog.Loopir.Ast.params

let param_array ~names ~params =
  Array.map
    (fun n ->
      match List.assoc_opt n params with
      | Some v -> v
      | None -> Diag.fail (Diag.Unbound_parameter n))
    names

let materialize plan ~prog ~params =
  guarded (fun () ->
      check_params prog ~params;
      match plan with
      | Plan.Rec_chains rp ->
          let arr =
            param_array ~names:rp.Core.Partition.simple.Depend.Solve.params
              ~params
          in
          let c =
            match Core.Partition.materialize rp ~params:arr with
            | Ok c -> c
            | Error e -> Diag.fail e
          in
          Rec { rp; c }
      | Plan.Dataflow_fronts _ ->
          Fronts (Core.Dataflow.peel_concrete prog ~params)
      | Plan.Pdm_fallback { simple = Some a; _ } ->
          let arr = param_array ~names:a.Depend.Solve.params ~params in
          let pdm = Baselines.Pdm.of_simple a ~params:arr in
          let pts =
            Presburger.Iset.points
              (Presburger.Iset.bind_params a.Depend.Solve.phi arr)
          in
          let stmt = a.Depend.Solve.stmt.Loopir.Prog.id in
          Tasks { sched = Baselines.Pdm.schedule pdm ~stmt pts }
      | Plan.Pdm_fallback { simple = None; _ } ->
          (* No single-statement summary to uniformize: fall back to the
             exact instance graph, like Algorithm 1 does for Cholesky. *)
          Fronts (Core.Dataflow.peel_concrete prog ~params)
      | Plan.Unique_sets { rp; u } ->
          let arr =
            param_array ~names:rp.Core.Partition.simple.Depend.Solve.params
              ~params
          in
          let stmt =
            rp.Core.Partition.simple.Depend.Solve.stmt.Loopir.Prog.id
          in
          Tasks { sched = Baselines.Unique.schedule u ~stmt ~params:arr }
      | Plan.Mindist_tiles { simple = a } ->
          let arr = param_array ~names:a.Depend.Solve.params ~params in
          let md = Baselines.Mindist.of_simple a ~params:arr in
          let pts =
            Presburger.Iset.points
              (Presburger.Iset.bind_params a.Depend.Solve.phi arr)
          in
          let stmt = a.Depend.Solve.stmt.Loopir.Prog.id in
          Tasks { sched = Baselines.Mindist.schedule md ~stmt pts }
      | Plan.Doacross_model _ -> Model { tr = Depend.Trace.build prog ~params })

let schedule = function
  | Rec { rp; c } ->
      let stmt = rp.Core.Partition.simple.Depend.Solve.stmt.Loopir.Prog.id in
      Ok (Runtime.Sched.of_rec ~stmt c)
  | Fronts d -> Ok (Runtime.Sched.of_fronts d)
  | Tasks { sched } -> Ok sched
  | Model _ ->
      Error
        (Diag.Unsupported
           "DOACROSS is cost-model only: P/V synchronization has no \
            barrier schedule")

let codegen plan ~prog =
  match plan with
  | Plan.Rec_chains rp -> Ok (Codegen.Emit.rec_partitioning rp)
  | Plan.Dataflow_fronts _ ->
      let* a = Strategy.analyze_simple prog in
      guarded (fun () ->
          let fronts =
            Core.Dataflow.peel_symbolic ~phi:a.Depend.Solve.phi
              ~rd:a.Depend.Solve.rd ~max_steps:64
          in
          Codegen.Emit.dataflow_listing fronts
            ~names:a.Depend.Solve.iters)
  | p ->
      Error
        (Diag.Unsupported
           (Printf.sprintf "no code generator for the %s strategy"
              (Plan.strategy_name (Plan.strategy p))))

let stats = function
  | Rec { c; _ } ->
      let n_chains = Core.Chain.n_chains c.Core.Partition.chains in
      {
        Report.empty_stats with
        p1 = Some (Core.Points.length c.Core.Partition.p1_pts);
        p2 = Some (Core.Chain.total_points c.Core.Partition.chains);
        p3 = Some (Core.Points.length c.Core.Partition.p3_pts);
        n_chains = Some n_chains;
        longest_chain = Some c.Core.Partition.chains.Core.Chain.longest;
        growth = Some c.Core.Partition.growth;
        theorem_bound = c.Core.Partition.theorem_bound;
        n_tasks = Some n_chains;
      }
  | Fronts d -> { Report.empty_stats with n_fronts = Some d.Core.Dataflow.steps }
  | Tasks { sched } ->
      let n_tasks =
        List.fold_left
          (fun acc ph ->
            match ph with
            | Runtime.Sched.Tasks { tasks; _ } -> acc + Array.length tasks
            | Runtime.Sched.Doall _ -> acc)
          0 sched.Runtime.Sched.phases
      in
      {
        Report.empty_stats with
        n_tasks = (if n_tasks > 0 then Some n_tasks else None);
      }
  | Model _ -> Report.empty_stats

(* ---- composed, instrumented run ------------------------------------- *)

type options = {
  threads : int;
  check : bool;
  measure : bool;
  strategy : Plan.strategy option;
  workers : Runtime.Workers.t option;
  sim_cost : Runtime.Sim.cost option;
}

let default_options =
  {
    threads = 4;
    check = true;
    measure = true;
    strategy = None;
    workers = None;
    sim_cost = None;
  }

type outcome = {
  plan : Plan.t;
  concrete : materialized;
  sched : Runtime.Sched.t option;
  report : Report.t;
}

let run ?(options = default_options) ~name ~params prog =
  if options.threads <= 0 then
    Error
      {
        stage = Diag.Execute;
        error = Diag.Invalid_thread_count options.threads;
        timings = [];
      }
  else begin
    let timings = ref [] in
    let gcs = ref [] in
    let timed label f =
      Obs.Span.with_ ~name:("stage:" ^ label) (fun () ->
          let gc0 = Obs.Gcstats.start () in
          let t0 = Obs.Clock.now_ns () in
          let r = f () in
          timings := (label, Obs.Clock.elapsed_s t0) :: !timings;
          gcs := (label, Obs.Gcstats.since gc0) :: !gcs;
          r)
    in
    (* Mid-pipeline failures keep the stage timings collected so far,
       including the failing stage's own duration (it ran to its typed
       Error). *)
    let at stage r =
      Result.map_error
        (fun error ->
          Obs.Event.emit ~scope:"pipeline" ~name:"stage.failed"
            ~severity:Obs.Event.Warn (fun () ->
              [
                ("stage", Obs.Event.Str (Diag.stage_name stage));
                ("error", Obs.Event.Str (Diag.to_string error));
              ]);
          { stage; error; timings = List.rev !timings })
        r
    in
    Obs.Span.with_ ~name:("run:" ^ name) @@ fun () ->
    let* plan =
      at Diag.Classify
        (timed "classify" (fun () -> classify ?strategy:options.strategy prog))
    in
    let* concrete =
      at Diag.Materialize
        (timed "materialize" (fun () ->
             materialize plan ~prog ~params))
    in
    let sched =
      match concrete with
      | Model _ -> None
      | m -> (
          match timed "schedule" (fun () -> schedule m) with
          | Ok s -> Some s
          | Error _ -> None)
    in
    (* Legality: replay the exact instance graph against the schedule.
       Dataflow fronts were peeled off that very graph, so their trace is
       reused; every other plan builds it here, once. *)
    let* legality =
      match (sched, concrete) with
      | Some s, _ when options.check ->
          at Diag.Validate
            (guarded (fun () ->
                 timed "validate" (fun () ->
                     let tr =
                       match concrete with
                       | Fronts d -> d.Core.Dataflow.trace
                       | _ -> Depend.Trace.build prog ~params
                     in
                     match Runtime.Sched.check_legal s tr with
                     | Ok () -> Report.Passed
                     | Error m -> Report.Failed m)))
      | _ -> Ok Report.Skipped
    in
    (* Predict before executing: the cost model is only useful if it is
       held to account against what the executor then measures. *)
    let cost, cost_source =
      match options.sim_cost with
      | Some c -> (c, "calibrated")
      | None -> (Runtime.Sim.base_seconds, "default")
    in
    let predicted =
      Option.map (Runtime.Sim.predict cost ~threads:options.threads) sched
    in
    (* Execution: sequential ground truth + instrumented parallel run, or
       the DOACROSS cost model.  The store is scanned once: the oracle
       runs on a copy of the env's image, the schedule on the store
       itself. *)
    let* semantics, seq_seconds, model_makespan, timed_run =
      match (concrete, sched) with
      | Model { tr }, _ ->
          at Diag.Execute
            (guarded (fun () ->
                 let r =
                   timed "execute" (fun () ->
                       Baselines.Doacross.pipeline tr ~threads:options.threads
                         ~w_iter:1.0 ~delay_factor:0.5)
                 in
                 ( Report.Skipped,
                   None,
                   Some r.Baselines.Doacross.makespan,
                   None )))
      | _, Some s when options.check || options.measure ->
          at Diag.Execute
            (guarded (fun () ->
                 timed "execute" (fun () ->
                     let env = Runtime.Interp.prepare prog ~params in
                     let store = Runtime.Interp.scan_bounds env in
                     let t0 = Obs.Clock.now_ns () in
                     let seq =
                       Obs.Span.with_ ~name:"seq-interp" (fun () ->
                           Runtime.Interp.run_sequential env)
                     in
                     let seq_s = Obs.Clock.elapsed_s t0 in
                     let tmd =
                       Runtime.Exec.run_timed ?cost:options.sim_cost
                         ?workers:options.workers ~store env
                         ~threads:options.threads s
                     in
                     let semantics =
                       if not options.check then Report.Skipped
                       else if Runtime.Arrays.equal seq tmd.Runtime.Exec.store
                       then Report.Passed
                       else
                         Report.Failed
                           "parallel store differs from the sequential run"
                     in
                     (semantics, Some seq_s, None, Some tmd))))
      | _ -> Ok (Report.Skipped, None, None, None)
    in
    let par_seconds = Option.map (fun t -> t.Runtime.Exec.seconds) timed_run in
    let n_instances, n_phases =
      match (concrete, sched) with
      | Model { tr }, _ ->
          (Some (Array.length tr.Depend.Trace.instances), None)
      | _, Some s ->
          (Some (Runtime.Sched.n_instances s), Some (Runtime.Sched.n_phases s))
      | _ -> (None, None)
    in
    (* One entry per scheduled phase: Sim.predict and Exec.run_timed both
       walk the schedule's phases in order, so their lists line up. *)
    let phases =
      match (sched, predicted) with
      | Some s, Some pred ->
          let entry ph (label, predicted_s) =
            {
              Report.label;
              instances = Runtime.Sched.phase_size ph;
              predicted_s;
              run = None;
            }
          in
          let entries = List.map2 entry s.Runtime.Sched.phases pred in
          let ran e (p : Runtime.Exec.phase_stat) =
            let sum = Array.fold_left ( +. ) 0.0 in
            {
              e with
              Report.run =
                Some
                  {
                    Report.units = p.n_units;
                    domains = Array.length p.busy;
                    seconds = p.seconds;
                    busy_seconds = sum p.busy;
                    alloc_words = sum p.alloc;
                  };
            }
          in
          Option.fold ~none:entries
            ~some:(fun t -> List.map2 ran entries t.Runtime.Exec.phase_stats)
            timed_run
      | _ -> []
    in
    let balance =
      Option.bind timed_run (fun t ->
          Report.balance_of_phases ~threads:options.threads
            (List.map
               (fun (p : Runtime.Exec.phase_stat) -> (p.busy, p.seconds))
               t.Runtime.Exec.phase_stats))
    in
    let prediction =
      Option.map
        (fun pred ->
          let total_predicted_s =
            List.fold_left (fun acc (_, p) -> acc +. p) 0.0 pred
          in
          let rel_error =
            Option.bind par_seconds (fun a ->
                Report.rel_error ~predicted:total_predicted_s ~actual:a)
          in
          Option.iter Runtime.Sim.observe_rel_error rel_error;
          { Report.cost_source; total_predicted_s; rel_error })
        predicted
    in
    let run_stats = stats concrete in
    (* Tick the gateable chain-vs-bound ratio inside the run, so a caller
       that diffs metrics around it (and the baseline gates) sees it. *)
    (match (run_stats.Report.longest_chain, run_stats.Report.theorem_bound) with
    | Some measured, Some bound ->
        Obs.Critpath.observe_chain_ratio ~measured ~bound
    | _ -> ());
    let report =
      {
        Report.program = name;
        params;
        strategy = Plan.strategy_name (Plan.strategy plan);
        reason = Plan.reason plan;
        timings = List.rev !timings;
        n_instances;
        n_phases;
        stats = Some run_stats;
        threads = options.threads;
        legality;
        semantics;
        seq_seconds;
        par_seconds;
        model_makespan;
        thread_loads =
          Option.map
            (Runtime.Exec.thread_loads ~threads:options.threads)
            timed_run;
        phases;
        balance;
        prediction;
        gc = List.rev !gcs;
      }
    in
    Ok { plan; concrete; sched; report }
  end

let calibration_samples { sched; report; _ } =
  match sched with
  | None -> []
  | Some s ->
      List.concat
        (List.map2
           (fun shape (p : Report.phase_profile) ->
             match p.run with
             | None -> []
             | Some x ->
                 [
                   {
                     Runtime.Sim.s_threads = report.Report.threads;
                     s_shape = shape;
                     s_busy = x.Report.busy_seconds;
                     s_wall = x.Report.seconds;
                   };
                 ])
           (Runtime.Sim.abstract s) report.Report.phases)
