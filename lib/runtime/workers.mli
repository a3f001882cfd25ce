(** The domain pool: persistent domains, spawned once and reused, that
    drain two queues.

    - The {e run} queue holds {!run}'s barrier jobs: execution chunk
      drainers.  {!run} executes its first thunk on the
      calling domain and then helps drain the run queue until its own
      jobs are done, so a pool made by [create ~domains:1] spawns nothing
      and degenerates to sequential execution, and concurrent {!run}
      calls share one pool without starving each other.  {!run} returns
      only when all of its thunks have finished; the first exception
      raised by any thunk is re-raised in the caller after the barrier.
    - The {e admission} queue holds independent jobs (the service's
      requests).  It is bounded: {!submit} blocks while it is full, and
      {!try_submit} sheds instead.  A job that raises does {e not} kill
      its domain: the exception is counted
      (["runtime.workers.panics"]) and logged as a [Warn] event.
      {!shutdown} stops admissions, lets the helpers drain every queued
      job and joins them.

    {b Drain rule.}  {!run} is legal inside any job, admitted or run.  A
    {!run} caller drains only run jobs, never admitted ones, and an idle
    helper takes a queued run job before an admitted one.  That is what
    makes nesting safe.  An admitted job may block indefinitely: a
    request's continuation writes its reply to a socket whose peer may
    not be reading.  A run job always finishes: it only computes, and any
    {!run} it makes finishes by the same argument.  A {!run} caller
    waits at its barrier only after it finds the run queue empty, that
    is when every one of its jobs has already been taken by a domain that
    is executing it.  So a barrier only ever waits on run jobs that are
    running, never on a job queued behind a blocked worker.

    The pool is always-on instrumented through the {!Obs.Metrics}
    registries (naming convention [runtime.workers.*]): counters
    ["runtime.workers.jobs"] (run thunks executed), ["…jobs_stolen"]
    (popped by a helper domain) and ["…jobs_caller"] (run by the
    submitting caller: its first thunk plus anything it drained), with
    [jobs = jobs_stolen + jobs_caller] on a quiescent pool;
    ["…completed"] and ["…panics"] for admitted jobs; histograms
    ["runtime.workers.queue_wait_us"] (enqueue → dequeue latency per
    queued run job), ["runtime.workers.barrier_wait_us"] (time a caller
    blocks at the completion barrier per {!run} that had to wait) and
    ["runtime.workers.queue_depth"] (admission queue length at each
    accepted submit).  Each observation is a few atomic adds, cheap
    enough for the execution hot path. *)

type t

exception Closed
(** Raised by {!submit} after {!shutdown} started. *)

val max_domains : int
(** The most domains the OCaml runtime runs at once, the main domain
    included: 128 (OCaml 5.1's [Max_domains]).  Past it [Domain.spawn]
    fails, so no pool of more can be made. *)

val create : domains:int -> t
(** Spawns [domains - 1] helper domains ([domains ≥ 1]; the caller of
    {!run} is the remaining worker) behind an admission queue of 64.
    Each spawn increments the global ["runtime.workers.spawned"]
    counter. *)

val spawn : ?queue_capacity:int -> domains:int -> unit -> t
(** Spawns exactly [domains] (≥ 1) domains behind an admission queue of
    at most [queue_capacity] (default 64, ≥ 1) jobs: the pool for
    submitters that never run jobs themselves.  The admission events
    [workers.submit]/[workers.dequeue]/[workers.panic] go to the ambient
    {!Obs.Event} log. *)

val domains : t -> int
(** The configured size: helpers plus the participating caller for
    {!create}, the spawned domains for {!spawn}. *)

val spawned : t -> int
(** Domains actually spawned. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Executes the thunks (first one on the calling domain, the rest through
    the run queue), waits for all of them, and returns their results in
    order.  Safe to call concurrently from multiple domains, from inside
    any job (see the drain rule above) and after {!shutdown} (the caller
    then drains its own jobs itself).

    The caller's {!Obs.Ctx} (if any) is captured and installed around
    every thunk, wherever it runs — spans and events emitted on helper
    domains keep the originating request's trace id. *)

val submit : t -> (unit -> unit) -> unit
(** Admit one job, blocking while the admission queue is full.  The
    submitter's {!Obs.Ctx} (if any) is captured with the job and
    installed around it on the helper: the dequeue event and everything
    the job emits carry the originating request's trace id.
    @raise Closed once {!shutdown} has been called.
    @raise Invalid_argument on a pool that spawned no domain. *)

val try_submit : t -> (unit -> unit) -> bool
(** Non-blocking {!submit}: [false] when the admission queue is at
    capacity or the pool is shutting down, [true] when the job was
    enqueued.  Only admitted jobs count against the capacity, never run
    jobs.  The network server's load-shedding primitive: a [false]
    becomes a typed [overloaded] record instead of backpressure on the
    socket reader.  @raise Invalid_argument as {!submit} does. *)

val capacity : t -> int
(** The admission queue's capacity. *)

val queue_length : t -> int
(** Admitted jobs currently queued (point-in-time; the health op's
    headroom signal). *)

val alive : t -> bool
(** [true] until {!shutdown} is called. *)

val shutdown : t -> unit
(** Stops admissions, lets the helpers drain both queues and joins them;
    idempotent.  Submitters blocked on a full queue are released with
    {!Closed}. *)
