(** The pipeline driver: one API for the full flow

    {v analyze → classify → materialize → schedule → validate → execute v}

    Each stage is exposed separately (for frontends that stop early, like
    [recpart partition] or [recpart codegen]) and {!run} composes all of
    them with per-stage wall-time instrumentation, producing a
    {!Report.t}.  Failures are structured ({!Diag.error}) and tagged with
    the stage that produced them — no [failwith] strings. *)

(** A plan bound to concrete loop-bound parameters. *)
type materialized =
  | Rec of {
      rp : Core.Partition.rec_plan;
      c : Core.Partition.concrete_rec;
    }  (** concrete three-set partition + chains *)
  | Fronts of Core.Dataflow.concrete
      (** successive dataflow fronts over the exact instance graph *)
  | Tasks of { sched : Runtime.Sched.t }
      (** strategies that directly produce a phase schedule (PDM cosets,
          unique-set regions, mindist tiles) *)
  | Model of { tr : Depend.Trace.t }
      (** simulation-only strategies (DOACROSS) *)

type error = {
  stage : Diag.stage;  (** the stage that failed *)
  error : Diag.error;
  timings : (string * float) list;
      (** wall seconds of every stage that ran, in pipeline order and
          including the failing stage itself — so a failing run still
          reports where time went *)
}

val error_to_string : error -> string

val guarded : (unit -> 'a) -> ('a, Diag.error) result
(** Runs the thunk, turning {!Diag.Error} and the known library
    exceptions into typed errors: set-algebra blowup ([Set_blowup]),
    the dataflow step limit, unsupported shapes ([Unsupported]) and
    checked-arithmetic overflow ([Int_overflow]).  Anything else
    propagates.  Every stage of {!run} and every request of the
    service goes through it. *)

(* ---- individual stages ---------------------------------------------- *)

val analyze :
  Loopir.Ast.program -> (Depend.Solve.simple, Diag.error) result
(** Exact dependence analysis of a single-statement perfect nest. *)

val classify :
  ?strategy:Plan.strategy ->
  Loopir.Ast.program ->
  (Plan.t, Diag.error) result
(** Algorithm 1 strategy selection, or a forced strategy. *)

val materialize :
  Plan.t ->
  prog:Loopir.Ast.program ->
  params:(string * int) list ->
  (materialized, Diag.error) result
(** Binds loop-bound parameters and builds the concrete partition.  Checks
    that every program parameter is bound ([Unbound_parameter]). *)

val schedule : materialized -> (Runtime.Sched.t, Diag.error) result
(** The executable phase/barrier schedule; [Error Unsupported] for
    model-only strategies (DOACROSS). *)

val codegen :
  Plan.t -> prog:Loopir.Ast.program -> (string, Diag.error) result
(** The pseudo-Fortran listing for plans that have one (REC, dataflow). *)

val stats : materialized -> Report.partition_stats
(** Partition sizes, chain counts, front counts for the report. *)

(* ---- composed, instrumented run ------------------------------------- *)

type options = {
  threads : int;
      (** domains for parallel execution, [1 … Runtime.Workers.max_domains] *)
  check : bool;  (** verify legality + sequential equivalence *)
  measure : bool;  (** measure seq/parallel wall time *)
  strategy : Plan.strategy option;  (** [None] = Algorithm 1 selection *)
  workers : Runtime.Workers.t option;
      (** persistent executor pool to reuse across runs; [None] (the
          default) lets each run create and shut down a transient pool *)
  sim_cost : Runtime.Sim.cost option;
      (** cost-model constants for the pre-execution prediction
          (each phase's [predicted_s], {!Report.prediction}) and for the
          executor's DOALL chunk sizes;
          [None] (the default) uses the uncalibrated
          {!Runtime.Sim.base_seconds}, [Some c] uses calibrated constants
          (see {!Runtime.Sim.calibrate}) and tags the report's prediction
          block ["calibrated"] *)
}
(** The options select execution and checking only.  Recording is not
    an option: {!run}'s [run:*]/[stage:*] spans, the executor's spans
    and every layer's decision events go to the ambient {!Obs.Event}
    log, which a top-level command attaches once for the whole process
    ({!Obs.Event.with_ambient}); with none attached each site costs one
    branch. *)

val default_options : options
(** 4 threads, check and measure on, automatic strategy. *)

type outcome = {
  plan : Plan.t;
  concrete : materialized;
  sched : Runtime.Sched.t option;  (** [None] for model-only strategies *)
  report : Report.t;
}

val run :
  ?options:options ->
  name:string ->
  params:(string * int) list ->
  Loopir.Ast.program ->
  (outcome, error) result
(** The whole pipeline on one program.  When [options.check] is set, the
    schedule is validated against the exact instance graph
    ({!Runtime.Sched.check_legal}) and executed on domains with the result
    compared to the sequential interpreter.  A run builds that graph once:
    validate reuses the trace a [Fronts] materialization peeled, and
    builds it only for the other plans.  It scans the array store once
    too: the schedule runs on the scanned store and the interpreter on a
    copy of the image the scan left with the env
    ({!Runtime.Interp.scan_bounds}).  Check failures are reported in
    {!Report.t} (the pipeline itself still succeeds — an [Error] means a
    stage could not run at all).  [run] reads the ambient log and never
    swaps it, so concurrent runs on several domains all record into the
    one attached log.  Nor does it diff the process-wide metrics: a
    caller that runs one pipeline at a time takes that diff around its
    own call ({!Report.to_text}'s [metrics]). *)

val calibration_samples : outcome -> Runtime.Sim.sample list
(** The run's measured phases as {!Runtime.Sim.calibrate} samples, at
    the report's thread count; [[]] when the run built no schedule or
    did not execute it. *)
