(** Real multicore execution of a schedule on OCaml 5 domains — the second
    half of the testbed substitution: it independently validates that a
    schedule's parallel phases are race-free in practice (a legal schedule
    leaves the store identical to the sequential run) and provides
    wall-clock measurements.

    Every statement instance runs through its {!Compile} kernel — a
    closure with fused affine offsets.  A kernel allocates only the
    boxed float its right-hand side returns, ~2 words per instance.
    {!Interp.run_sequential} remains the reference oracle ({!check}).

    Phases are separated by barriers.  Within a phase, work is addressed
    as [(unit, offset, length)] chunks — descriptors over the phase's
    instance arrays, so chunk setup copies no instance data.  One chunk
    policy, driven by the {!Sim} cost model: DOALL blocks are sized
    cost-proportionally via {!Sim.doall_chunk_count} (several chunks per
    domain when per-chunk work dwarfs scheduling overhead), non-empty
    tasks are sorted longest-first, and all domains drain the chunks
    through one atomic cursor — dynamic self-scheduling, so a straggling
    domain simply takes fewer chunks and per-barrier idle time shrinks.

    Chunks of the same phase execute concurrently on a persistent
    {!Workers.t} pool: pass [?workers] to reuse one pool across many runs
    (the analysis service does), or let {!run_timed} create a transient
    pool — domains are then spawned once per run, not once per phase.

    All entry points accept any thread count: values ≤ 1 run sequentially
    on the calling domain (never raise), and only domains that will find
    a chunk are handed to the pool.

    Every run goes through one instrumented path ({!run_timed}); {!run}
    and {!check} are thin views of it, and the pipeline layer turns the
    per-phase statistics into its report.  All timings come from
    {!Obs.Clock} (monotonic).  Each phase, per-domain bucket and chunk
    additionally becomes a span on the executing domain's timeline in
    the ambient {!Obs.Event} log when a top-level command attached one
    (with no log attached, the bucket and chunk spans are not even
    opened).  Per-chunk [task] spans carry the sample
    {!Obs.Critpath} consumes — [("phase", label)], [("chain", id)] (task
    phases; the REC chain index) or [("block", id)] (DOALL blocks), and
    [("len", points)] — so every barrier's straggler is attributable to
    a concrete chain or block. *)

type phase_stat = {
  label : string;  (** the phase's {!Sched.phase_label} *)
  n_instances : int;  (** statement instances executed in the phase *)
  n_units : int;  (** non-empty chunks (DOALL) or tasks executed *)
  loads : int array;
      (** instances executed per domain (length = executing domain count
          for parallel runs, [[| n |]] for sequential runs) *)
  busy : float array;
      (** seconds each domain spent executing its chunks, aligned with
          [loads]; the gap to [seconds] is barrier idle time *)
  alloc : float array;
      (** words each domain allocated while executing its chunks (an
          {!Obs.Gcstats.mark} reading taken inside the domain: O(1) and
          exact for that domain), aligned with [busy] *)
  seconds : float;  (** wall time of the phase, barrier included *)
}

type timed = {
  store : Arrays.t;  (** final array store *)
  seconds : float;
      (** total wall time (store setup and kernel compilation excluded) *)
  phase_stats : phase_stat list;  (** one entry per phase, in order *)
}

val run_timed :
  ?cost:Sim.cost ->
  ?workers:Workers.t ->
  ?store:Arrays.t ->
  Interp.env ->
  threads:int ->
  Sched.t ->
  timed
(** Executes the schedule on [threads] domains (sequential on the calling
    domain when [threads ≤ 1]) and records per-phase wall time and
    per-domain load/busy time.  [cost] (default {!Sim.base_seconds})
    sizes the DOALL chunks; [workers] (default: a transient pool created
    and shut down inside this call) supplies a persistent executor pool.
    [store] (default: a fresh {!Interp.scan_bounds} of [env]) is the
    frozen store the run writes into and returns; a caller that scanned
    already passes its store, or an {!Arrays.copy} of it.
    The compile, phase, bucket and task spans go to the ambient
    {!Obs.Event} log. *)

val run : ?cost:Sim.cost -> Interp.env -> threads:int -> Sched.t -> Arrays.t
(** [run_timed]'s final store. *)

val check :
  ?cost:Sim.cost ->
  Interp.env ->
  threads:int ->
  Sched.t ->
  (unit, string) result
(** Parallel run vs sequential interpreter run array equality. *)

val thread_loads : timed -> threads:int -> int array
(** Total instances executed per domain across all phases — the bucket
    load balance statistic of the pipeline report.  Phases that used more
    executors than [threads] have the overflow folded into the last slot
    (nothing is dropped). *)

(**/**)

val doall_chunks : chunks:int -> int -> (int * int) list
(** Exposed for tests: [(offset, length)] of each cost-proportional DOALL
    chunk — [chunks] clamped to [1 …​ n], ranges contiguous, complete and
    never empty. *)
