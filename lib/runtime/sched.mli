(** Executable schedules: an ordered sequence of phases separated by
    barriers.  Inside a phase, work is either a flat fully-parallel set of
    statement instances (DOALL) or a set of parallel sequential tasks (e.g.
    the WHILE chains of the REC partitioning, or lattice cosets for PDM).

    A schedule is flat.  Each phase is one [int array] holding its
    instances in execution order (task by task for a task phase), a fixed
    number of ints each: the instance's statement, then its iteration
    vector, zero-padded to the longest vector of the phase.  A task phase
    adds an [int array] of task starts.  Only this module decides that
    layout: readers go through the accessors below, and the kernels read
    coordinate [j] of instance [k] at [(data p).(coords p k + j)], in
    place, so no record or vector is loaded per instance.  A statement's
    vectors have one length throughout a schedule, checked against a
    program once per schedule ({!check_arity}), not once per
    instance.

    The same schedule value drives the semantic validator ({!Interp}), the
    SMP cost simulator ({!Sim}) and the multicore executor ({!Exec}), and
    {!check_legal} replays the exact instance trace ({!Depend.Trace})
    against it, by trace instance id. *)

type t
type phase

(** {2 Reading a schedule} *)

val n_phases : t -> int
val n_instances : t -> int

val phase : t -> int -> phase
(** [phase s k] is the [k]-th phase, [0 ≤ k < n_phases s]. *)

val phase_list : t -> phase list
(** The phases in order. *)

val check_arity : t -> depths:int array -> unit
(** Raises [Failure] unless every statement [stmt] the schedule runs is a
    statement of the program ([stmt < Array.length depths]) whose
    iteration vectors in the schedule have [depths.(stmt)] coordinates,
    its number of enclosing loops.  The executors call it once per
    schedule. *)

val phase_label : phase -> string

val phase_size : phase -> int
(** Number of statement instances in the phase. *)

val is_doall : phase -> bool

val n_tasks : phase -> int
(** The phase's tasks, empty ones included (0 for a DOALL phase). *)

val task_start : phase -> int -> int
(** [task_start p u] is the index of task [u]'s first instance; task [u]
    is instances [task_start p u … task_start p u + task_length p u - 1]. *)

val task_length : phase -> int -> int

val stmt : phase -> int -> int
(** [stmt p k] is the statement of instance [k], [0 ≤ k < phase_size p]. *)

val data : phase -> int array
(** The phase's instance array, shared: read it, never write it. *)

val coords : phase -> int -> int
(** [coords p k] is the offset in [data p] of instance [k]'s first
    coordinate; its vector is the next ints there, as many as its
    statement's loops. *)

val width : phase -> int
(** The ints per instance in [data p]: instance [k + 1]'s coordinates
    start [width p] ints after instance [k]'s. *)

val iter : t -> phase -> int -> int array
(** A fresh copy of instance [k]'s iteration vector (for reports and
    tests; executors read {!data} in place). *)

(** {2 Building a schedule}

    Every builder writes the phase arrays directly, drops empty phases,
    and raises [Invalid_argument] when one statement comes with vectors of
    two lengths. *)

type 'a group =
  | Doall of 'a list  (** one DOALL phase *)
  | Tasks of 'a list list  (** one phase of sequential tasks, in order *)

val of_list : (string * (int * int array) group) list -> t
(** One phase per [(label, group)], of [(statement, vector)] instances in
    list order. *)

val of_stmt_groups : stmt:int -> (string * Linalg.Ivec.t group) list -> t
(** {!of_list} for instances of the one statement [stmt] (the PDM, PL,
    mindist and UNIQUE baselines). *)

val sequential_of_trace : Depend.Trace.t -> t
(** One task executing every instance in original program order. *)

val of_trace_doalls : Depend.Trace.t -> (string * int list) list -> t
(** One DOALL phase per [(label, ids)], of the trace instances [ids] in
    list order (dataflow fronts, inner-parallel groups). *)

val of_rec : stmt:int -> Core.Partition.concrete_rec -> t
(** [P1 DOALL; chains in parallel; P3 DOALL] (empty phases dropped):
    {!Core.Points} and {!Core.Chain}'s packed points re-strided, task [k]
    being chain [k]. *)

val of_fronts : Core.Dataflow.concrete -> t
(** One DOALL phase per dataflow front. *)

(** {2 Legality} *)

val check_legal : t -> Depend.Trace.t -> (unit, string) result
(** Verifies that every dependence edge of the exact instance graph is
    respected: source strictly before target (earlier phase, or same task of
    the same phase at a smaller index) and every instance appears exactly
    once.  Checks run in this order, each reporting one [Error]: an instance
    scheduled twice (the last such in schedule order); a schedule whose
    instance count differs from the trace's; an instance the trace lacks
    (the first in schedule order), even when the counts match; then the
    first edge, in trace order, not respected.

    The trace is copied into one flat phase, and each of its instances
    is entered once, by its id (its index in the trace, which is what
    edges name), in an open-addressing table of ints; a scheduled
    instance is looked up from its phase array in place, so only an
    instance the trace lacks allocates a key.  Scheduled positions
    are recorded in arrays indexed by id, so the edge walk does no
    hashing. *)
