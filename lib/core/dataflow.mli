(** Dataflow partitioning (the second branch of Algorithm 1): successively
    peel the front [P1 = Φ \ ran Rd] until the space is empty.  Each peeled
    set is fully parallel; the number of steps is the critical-path length.

    Two engines are provided: a symbolic one working on Presburger sets
    (exact, but needs a step limit since termination is only guaranteed for
    compile-time-known bounds) and a concrete one layering the exact
    trace-based dependence graph — the route used for the paper's Cholesky
    experiment (238 steps at the paper's parameters).

    The concrete result carries the trace it peeled, so a caller that also
    validates the schedule ([Pipeline.Driver.run], the E6 bench) checks it
    against that same trace instead of building a second one: the builder
    is deterministic, so a rebuild would be an equal value. *)

exception Did_not_terminate of int
(** Symbolic peeling exceeded the step limit (argument = limit). *)

val peel_symbolic :
  phi:Presburger.Iset.t ->
  rd:Presburger.Rel.t ->
  max_steps:int ->
  Presburger.Iset.t list
(** Successive fronts, in execution order. *)

type concrete = {
  graph : Depend.Graph.t;
  trace : Depend.Trace.t;  (** the instance trace the fronts index *)
  steps : int;  (** = number of fronts = dataflow partitioning steps *)
  fronts : int list array;  (** instance indices per front *)
}

val peel_concrete :
  Loopir.Ast.program -> params:(string * int) list -> concrete
