(** Dynamic (trace-based) dependence analysis for concrete loop bounds: the
    program is run in execution order recording every array reference, and
    flow / anti / output dependence edges are built between statement
    instances.  This drives the dataflow-partitioning branch of Algorithm 1
    on programs like the Cholesky kernel, where the exact statement-instance
    dependence graph is finite, and it is the graph every served schedule is
    validated against ({!Runtime.Sched.check_legal}).

    {!build} is one compiled pass.  Each loop index gets one slot of a
    single [int array]; each reference's subscripts are compiled once by
    {!Loopir.Eval_int.compile}, with parameters folded in, so arithmetic
    is checked and unbound-variable, non-integer and overflow errors are
    raised when a subscript is evaluated, never when it is compiled: a
    statement that never runs never fails.  Array cells live in one hash
    table keyed by (array name, index tuple), each holding its last writer
    and the readers since; memory is O(distinct cells + edges) whatever
    the arrays' extents, so a sparse subscript such as [a(100000000*i)]
    costs one cell per touched element.

    The output is fixed: instances in execution order; edges recorded when
    their destination executes (destinations non-decreasing), reads in
    source order, a cell's readers most recent first, self-edges dropped and
    duplicate edges kept.  {!Graph.of_trace} relies on that order and
    {!Runtime.Sched.check_legal} reports the first broken edge in it.
    Every call counts in the [trace.builds] counter.

    Edges are stored compactly (parallel int arrays) so paper-scale traces
    (millions of instances) fit comfortably in memory. *)

type instance = {
  inst : int;  (** execution order, 0-based *)
  stmt : int;  (** statement id (see {!Loopir.Prog.stmt_info.id}) *)
  iter : int array;  (** values of the enclosing loop indices *)
}

type t = {
  instances : instance array;
  edge_src : int array;
  edge_dst : int array;  (** same length; [edge_src.(k) < edge_dst.(k)] *)
}

val n_edges : t -> int
val iter_edges : t -> (int -> int -> unit) -> unit
val edges : t -> (int * int) list
(** Materialized edge list (small traces / tests). *)

val build : Loopir.Ast.program -> params:(string * int) list -> t
(** [build prog ~params] normalizes [prog], binds its parameters, and builds
    the exact instance-level dependence graph.  Raises {!Diag.Error}
    ([Unbound_parameter]/[Unbound_variable]) for unbound names. *)

val build_result :
  Loopir.Ast.program -> params:(string * int) list -> (t, Diag.error) result
(** {!build} with the failure threaded as a result. *)
