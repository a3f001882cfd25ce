(** Critical-path analysis of a recorded span timeline.

    Consumes the span records ({!Event.spans}) an instrumented
    execution leaves in the attached log (obs sits below the runtime
    layer, so nothing here knows about schedules or phases beyond the
    span naming convention) and answers the scheduler-observability questions: which work unit
    did each barrier wait for (straggler attribution), how much of the
    wall time is on the critical path, and how long the longest measured
    recurrence chain really was — the quantity Theorem 1 bounds by
    [⌈log_a L⌉ + 1].

    Naming convention (produced by the executor):
    - a span named ["phase:<label>"] delimits one barrier-terminated
      phase;
    - spans named ["task"] inside it carry [Str] fields
      [("phase", <label>); ("len", <points>)] and either
      [("chain", <id>)] (a recurrence chain / sequential task) or
      [("block", <id>)] (a DOALL block).

    Unknown spans are ignored, so the analysis is safe to run on any
    log (pipeline stage spans, service spans, …). *)

type unit_kind = Chain | Block

type task = {
  kind : unit_kind;
  id : int;  (** chain id (REC: index into the chain table) or block id *)
  len : int;  (** statement instances (chain points) in the unit *)
  tid : int;  (** domain that executed it *)
  start_ns : int64;
  dur_ns : int64;
}

type barrier = {
  label : string;  (** the phase label, e.g. ["P1"], ["P2-chains"] *)
  start_ns : int64;
  wall_ns : int64;  (** phase wall time, barrier included *)
  n_tasks : int;
  n_domains : int;  (** distinct executing domains observed *)
  busy_ns : int64;  (** Σ task durations across domains *)
  idle_fraction : float;
      (** 1 − busy / (threads × wall), clamped to [0, 1]; 0 on a
          zero-duration phase *)
  straggler : task option;
      (** the latest-finishing unit — the one the barrier waited for *)
  crit_ns : int64;
      (** straggler finish − phase start (= wall when no tasks were
          recorded): this phase's contribution to the critical path *)
  longest_len : int;  (** largest unit (points) in the phase; 0 if none *)
}

type t = {
  threads : int;  (** parallelism used for idle attribution *)
  barriers : barrier list;  (** phases in execution order *)
  wall_ns : int64;  (** Σ phase wall times *)
  critical_ns : int64;  (** Σ per-phase critical contributions *)
  critical_fraction : float;
      (** critical_ns / wall_ns, clamped to [0, 1]; 0 on zero wall *)
  longest_chain : int option;
      (** longest measured chain (points) over all [Chain] units; [None]
          when no chain task was recorded *)
}

val of_spans : ?threads:int -> ?theorem_bound:int -> Event.event list -> t
(** Builds the analysis from a recorded timeline ({!Event.spans} order —
    sorted by start time).  [threads] (default: the largest number of
    distinct domains seen in any one phase, at least 1) sets the
    denominator for idle attribution.  Phases with duplicate labels are
    kept separate (tasks attach to the innermost enclosing phase
    window).  When [theorem_bound] is given and a chain was measured,
    {!observe_chain_ratio} is ticked. *)

val observe_chain_ratio : measured:int -> bound:int -> unit
(** Ticks the gateable counter [runtime.sched.longest_chain_ratio_pct]
    with [100·measured/bound] — the measured longest chain as a
    percentage of the Theorem 1 bound [⌈log_a L⌉ + 1].  A rising value
    across runs of the same experiment means chains are getting longer
    relative to the bound (a partitioner regression); values above 100
    mean the bound is violated.  No-op unless both arguments are
    positive. *)

val to_text : ?theorem_bound:int -> t -> string
(** Human-readable critical-path summary and per-barrier straggler
    table; [theorem_bound] adds the measured-longest-chain vs Theorem 1
    comparison line. *)
