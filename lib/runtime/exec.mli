(** Real multicore execution of a schedule on OCaml 5 domains — the second
    half of the testbed substitution: it independently validates that a
    schedule's parallel phases are race-free in practice (a legal schedule
    leaves the store identical to the sequential run) and provides
    wall-clock measurements.

    Every statement instance runs through its statement's {!Compile}
    range kernel, which reads the loop indices of consecutive instances
    in place in their phase's flat array ({!Sched.data} from
    {!Sched.coords}, {!Sched.width} apart): a chunk makes one range call
    per maximal run of one statement, so a single-statement phase makes
    one call per chunk.  A copy, a constant, one binary operator or a
    multiply-accumulate runs as one loop with its affine offsets inline;
    any other right-hand side calls its closure tree per instance,
    evaluating into a scratch owned by the executing domain (the run
    makes one for the calling domain, each pooled drainer its own).  No
    kernel allocates per instance.  The vectors' length is checked
    against the program once per run ({!Sched.check_arity}), not once
    per instance.
    {!Interp.run_sequential} remains the reference oracle ({!check}).

    Phases are separated by barriers.  The {!Sim} cost model decides
    how many domains each phase engages: as many as the chunks its work
    affords ({!Sim.doall_chunk_count}: each chunk worth 4× the modelled
    fork + barrier), at most one per non-empty task and at most
    [threads].  With {!Sim.base_seconds} a phase engages a second
    domain only from 400 instances.

    A phase that engages one domain runs on the calling domain, in a
    plain loop over its array (a task phase's tasks lie there in index
    order): no chunk array, no closure, no cursor and no {!Workers.run}
    round trip.  A [threads ≤ 1] run takes this same path for every
    phase.  A phase that engages several domains is drained as chunks,
    each an instance range of the phase's array — a DOALL block or a
    whole task — named by its place in the drain order and found from it
    in O(1): chunk setup copies no instance data and builds no block per
    chunk.  DOALL blocks are sized cost-proportionally (several chunks
    per domain when per-chunk work dwarfs scheduling overhead), non-empty
    tasks drain longest first with ties by ascending index (a counting
    sort over the task lengths, into an int array), and the engaged
    domains drain the chunks through one atomic cursor — dynamic
    self-scheduling, so a straggling domain simply takes fewer chunks
    and per-barrier idle time shrinks.  No
    array on the run path starts from a freshly allocated element, so
    a run forces no minor collection: past 256 elements OCaml empties
    the minor heap before it fills such an array, which stops every
    domain of the pool.  Only
    those domains are handed to the pool, which runs them on a
    persistent {!Workers.t}: pass [?workers] to reuse one pool across
    many runs (the analysis service does), or let {!run_timed} create a
    transient pool of the widest phase's domains before the first phase
    — domains are then spawned once per run, not once per phase, never
    more than a phase engages, and not at all when no phase engages a
    second domain.

    Store set-up is one {!Interp.scan_bounds} of the env: a scan on its
    first call, one copy of the env's image after that, so repeated runs
    of one prepared program pay for their phases and one copy.

    The clock and the exact {!Obs.Gcstats} counters are read once per
    phase boundary: one phase closes where the next opens.  All entry
    points accept any thread count: values ≤ 1 run sequentially on the
    calling domain (never raise).

    Every run goes through one instrumented path ({!run_timed}); {!run}
    and {!check} are thin views of it, and the pipeline layer turns the
    per-phase statistics into its report.  All timings come from
    {!Obs.Clock} (monotonic).  Each phase, per-domain bucket and chunk
    additionally becomes a span on the executing domain's timeline in
    the ambient {!Obs.Event} log when a top-level command attached one
    (with no log attached, the bucket and chunk spans are not even
    opened, and with the {!Obs.Flight} recorder off too, not even a
    phase span's name is built).  Tracing never changes which domains run a phase: on the
    calling domain the same instances run as the same chunks inside the
    bucket and task spans.  Per-chunk [task] spans carry the sample
    {!Obs.Critpath} consumes — [("phase", label)], [("chain", id)] (task
    phases; the REC chain index) or [("block", id)] (DOALL blocks), and
    [("len", points)] — so every barrier's straggler is attributable to
    a concrete chain or block. *)

type phase_stat = {
  label : string;  (** the phase's {!Sched.phase_label} *)
  n_instances : int;  (** statement instances executed in the phase *)
  n_units : int;
      (** non-empty chunks (DOALL; one for a non-empty DOALL phase on the
          calling domain) or non-empty tasks executed *)
  loads : int array;
      (** instances executed per domain (length = the domains the phase
          engaged, [[| n |]] for a phase on the calling domain) *)
  busy : float array;
      (** seconds each domain spent executing its chunks, aligned with
          [loads]; the gap to [seconds] is barrier idle time *)
  alloc : float array;
      (** words each domain allocated while executing its chunks (exact
          {!Obs.Gcstats} readings: taken inside each engaged domain, or
          at the phase's boundaries for a phase on the calling domain),
          aligned with [busy] *)
  seconds : float;
      (** wall time of the phase from its opening to its closing
          boundary, barrier included *)
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
(** Executes the schedule on up to [threads] domains (sequential on the
    calling domain when [threads ≤ 1]) and records per-phase wall time
    and per-domain load/busy time.  [cost] (default {!Sim.base_seconds})
    decides the domains each phase engages and sizes the DOALL chunks;
    [workers] (default: a transient pool of the widest phase's domains,
    created when some phase engages a second domain and shut down inside
    this call) supplies a persistent executor pool.
    [store] (default: a fresh {!Interp.scan_bounds} of [env], a copy of
    its image after the env's first scan) is the frozen store the run
    writes into and returns; a caller that holds a fresh
    {!Interp.scan_bounds} of [env] may pass it instead of paying a
    copy.
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

val exec_range :
  Compile.t -> Compile.scratch -> Sched.phase -> int -> int -> unit
(** Exposed for tests: [exec_range compiled sc p lo len] runs instances
    [lo … lo + len - 1] of phase [p] in order, as a chunk does: one
    {!Compile.exec_range} call per maximal run of one statement. *)

val pool_domains : ?cost:Sim.cost -> threads:int -> Sched.t -> int
(** Exposed for tests: the domains of the transient pool {!run_timed}
    makes for the schedule without [?workers] — the most any of its
    phases engages, 1 when it makes none. *)

val drain_order : longest_first:bool -> int -> (int -> int) -> int array
(** Exposed for tests: [drain_order ~longest_first n len] is the indices
    of the non-empty tasks among [n] tasks of lengths [len], in the order
    a split task phase drains them — index order, or the longest first
    with ties by ascending index (a counting sort over the lengths). *)
