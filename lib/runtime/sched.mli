(** Executable schedules: an ordered list of phases separated by barriers.
    Inside a phase, work is either a flat fully-parallel set of statement
    instances (DOALL) or a set of parallel sequential tasks (e.g. the WHILE
    chains of the REC partitioning, or lattice cosets for PDM).

    The same schedule value drives the semantic validator ({!Interp}), the
    SMP cost simulator ({!Sim}) and the multicore executor ({!Exec}), and
    {!check_legal} replays the exact instance trace ({!Depend.Trace})
    against it, by trace instance id. *)

type instance = { stmt : int; iter : int array }

type phase =
  | Doall of { label : string; instances : instance array }
  | Tasks of { label : string; tasks : instance array array }

type t = { phases : phase list }

val instances : int -> (int -> instance) -> instance array
(** [Array.init] for instances.  The array starts from a constant
    instance and is filled in place: past 256 elements, an array made
    from a fresh first element ([Array.init], [Array.of_list],
    [Array.map]) makes OCaml empty the minor heap before it fills the
    array, and with another domain parked on the CPU that costs
    ~190 µs.  Every builder below fills its arrays this way. *)

val instances_of_list : ('a -> instance) -> 'a list -> instance array
(** The instances [f] makes from a list, in list order, filled like
    {!instances}. *)

val phase_array : t -> phase array
(** The phases in order, filled like {!instances}. *)

val n_instances : t -> int
val n_phases : t -> int
val phase_label : phase -> string

val phase_size : phase -> int
(** Number of statement instances in the phase. *)

val phase_instances : phase -> instance array
(** All instances of the phase, flattened in task order. *)

val of_phases : phase list -> t
(** Drops empty phases. *)

val sequential_of_trace : Depend.Trace.t -> t
(** One task executing every instance in original program order. *)

val of_rec : stmt:int -> Core.Partition.concrete_rec -> t
(** [P1 DOALL; chains in parallel; P3 DOALL] (empty phases dropped). *)

val of_fronts : Core.Dataflow.concrete -> t
(** One DOALL phase per dataflow front. *)

val of_task_groups :
  label:string -> stmt:int -> Linalg.Ivec.t list list -> t
(** A single phase of parallel sequential tasks (e.g. PDM cosets). *)

val concat : t list -> t
(** Phase-wise concatenation (sequential composition). *)

val check_legal : t -> Depend.Trace.t -> (unit, string) result
(** Verifies that every dependence edge of the exact instance graph is
    respected: source strictly before target (earlier phase, or same task of
    the same phase at a smaller index) and every instance appears exactly
    once.  Checks run in this order, each reporting one [Error]: an instance
    scheduled twice (the last such in schedule order); a schedule whose
    instance count differs from the trace's; an instance the trace lacks
    (the first in schedule order), even when the counts match; then the
    first edge, in trace order, not respected.

    Each trace instance is hashed once, to its id (its index in the trace,
    which is what edges name); scheduled positions are recorded in arrays
    indexed by that id, so the edge walk does no hashing. *)
