(** The concurrent analysis service: {!Pipeline.Driver} behind a
    content-addressed result cache and a domain pool.

    Requests are keyed by {!Key.of_request} (canonicalized program +
    bindings + strategy + execution facets).  A miss computes the
    answer and has {!Proto.encode_done} encode it once; the {!Cache}
    (and its {!Store} tier) keeps those bytes, and a hit writes them
    behind a fresh envelope without re-running any pipeline stage or
    re-encoding the report.  Worker
    errors are isolated per request: parse failures, typed pipeline
    errors, deadline overruns and unexpected exceptions all become error
    {e records} in the response stream — a batch never dies on one bad
    nest.

    Deadlines are cooperative: a request found expired when dequeued is
    failed without running, and one that finishes past its deadline has
    its (complete) result discarded in favor of a deadline error — a
    running pipeline stage is never interrupted mid-flight.

    One {!Runtime.Workers} pool does all the work: its domains drain the
    admitted requests and also run each request's execution chunks and
    DNF disjuncts.

    Every request runs under an {!Obs.Ctx} (minted at submit, propagated
    to every pool domain that works for it), so all spans/events it
    causes carry its trace id, which is also stamped into the response.
    Its [svc:request]/[svc:analyze] spans and lifecycle events go to the
    ambient {!Obs.Event} log — [recpart batch --trace] attaches one for
    the process, [recpart serve] none, so there they reach only the
    flight recorder.  Failed requests (deadline/pipeline/panic) dump their flight-recorder
    history to [config.flight_dir]; {!Proto.Metrics}/{!Proto.Health}
    requests are answered inline from the [Obs] registries and the
    rolling {!Obs.Window} without touching the cache. *)

type config = {
  domains : int;
      (** pool domains: they drain the request queue and run the
          requests' execution chunks and DNF disjuncts *)
  queue_capacity : int;  (** bounded request queue (backpressure) *)
  cache_capacity : int;
      (** total cached results, over 8 shards (see {!Cache.create}) *)
  threads : int;
      (** default chunk drainers per request execution (a cache-key
          facet; the drainers run on the pool's domains) *)
  check : bool;
      (** validate legality + sequential equivalence, and time the runs
          ({!Pipeline.Driver.options.measure}); the key's [measure]
          facet prints this value *)
  deadline_s : float option;  (** default per-request deadline *)
  slow_ms : float option;
      (** log any request slower than this to stderr with its stage
          timings (a hit logs that it was cached) and the
          presburger-memo delta it caused *)
  flight_dir : string option;
      (** where failed requests (deadline/pipeline/panic) dump their
          flight-recorder JSONL postmortems; [None] = no dumps *)
  store_dir : string option;
      (** durable second cache tier: a {!Store} of 8 shards, flushed
          every 32 pending records, opened under this directory at
          {!create} and attached below the in-memory {!Cache}
          (read-through / write-behind); [None] = memory only *)
}
(** The {!Obs.Flight} recorder is on from {!create} to {!shutdown}, and
    {!Proto.Metrics} reads a rolling window of 60 one-second periods. *)

val default_config : config
(** 4 domains, queue 64, cache 512, 2 threads, check on, no deadline, no
    dump dir, no slow-request log, no store. *)

type t

val create : ?config:config -> unit -> t
(** Spawns the pool's [config.domains] domains (and opens the durable
    store when [config.store_dir] is set); call {!shutdown} when done. *)

val run_one : t -> Proto.request -> Proto.response
(** Process one request synchronously on the calling domain, sharing the
    service cache ([recpart serve]). *)

val batch : t -> Proto.request list -> Proto.response list
(** Submit every request to the pool and wait for all responses, in
    request order.  Duplicate (content-equal) requests hit the cache
    after the first completes. *)

type admission =
  | Accepted
  | Shed of { queue_depth : int; queue_capacity : int }
      (** the bounded pool queue was full; the request was {e not}
          enqueued and [k] will never be called *)

val submit : t -> Proto.request -> k:(Proto.response -> unit) -> admission
(** Asynchronous single-request admission for the network server.
    Introspective ops ({!Proto.Metrics}/{!Proto.Health}) are answered
    inline — [k] runs on the calling thread before [submit] returns.
    Run/Classify requests are handed to the pool without blocking: [k]
    fires later on a worker domain (so it must be thread-safe), or the
    call returns {!Shed} when the queue is at capacity — the server's
    load-shedding signal, rendered as a typed [overloaded] record.  [k]
    must not raise; an exception from it is counted in
    [runtime.workers.panics]. *)

val cache_stats : t -> Cache.stats

val flush_store : t -> unit
(** Force the store's write-behind buffers to disk (no-op without a
    store).  The server calls this on graceful drain. *)

val register_gauges : t -> (unit -> (string * float) list) -> unit
(** Add gauge providers sampled by the [metrics] op's export (the
    network server registers its connection/in-flight gauges here so
    [recpart metrics --connect] sees them). *)

val window : t -> Obs.Window.t
(** The service's rolling aggregation window (rolled from the request
    hot path; what the [metrics] op's windowed quantiles read). *)

val pool : t -> Runtime.Workers.t
(** The service's one domain pool, spawned at {!create} with
    [config.domains] domains (its spawn count never scales with the
    request count). *)

val shutdown : t -> unit
(** Drain in-flight work and join the pool's domains.  Idempotent. *)
