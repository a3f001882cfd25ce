(** Reference interpreter for the mini-Fortran programs over the dense
    array store, plus schedule execution — the semantic ground truth used to
    validate every partitioning scheme: a legal schedule must leave the
    arrays exactly as the sequential run does. *)

type env = {
  prog : Loopir.Ast.program;  (** normalized *)
  params : (string * int) list;
  stmts : Loopir.Prog.stmt_info array;  (** indexed by statement id *)
}

val prepare : Loopir.Ast.program -> params:(string * int) list -> env
(** Normalizes the program and binds parameters.  Raises
    [Invalid_argument] when a loop reuses the index of an enclosing loop
    ({!Loopir.Ast.reused_index}), and [Failure] on an unbound
    parameter. *)

val scan_bounds : env -> Arrays.t
(** Records the exact extent of every array the program touches, then
    freezes the store (initial values seeded).

    The scan walks each statement's own enclosing loops, evaluating loop
    bounds at every point of its outer loops.  Inside the innermost loop, a
    reference whose subscripts are all affine ({!Loopir.Affine.of_expr})
    is evaluated only at the two ends: each of its subexpressions is
    linear in the innermost index, so its minimum and maximum over the
    loop are end values.  Other references are evaluated at every point.
    The extents therefore equal a per-point scan's, at a cost of
    O(outer iterations) for affine nests.  An array touched only inside
    empty loops stays absent.

    Every bound and subscript goes through the checked
    {!Loopir.Eval_int.eval}, and an affine subexpression that would
    overflow at an inner point overflows at an end too.  So a program a
    per-point scan rejects is rejected here, with the same exception
    unless it holds two different failures: statements are scanned one
    after another in textual order, not interleaved as they execute.
    Loops that enclose no statement are not visited. *)

val run_sequential : env -> Arrays.t
(** Executes the program in source order on a fresh store. *)

val exec_instance : env -> Arrays.t -> Sched.instance -> unit
(** Executes one statement instance (used by the executors). *)

val run_schedule : env -> Sched.t -> Arrays.t
(** Executes a schedule serially (phases in order, tasks in listed order) on
    a fresh store. *)

val check_schedule : env -> Sched.t -> (unit, string) result
(** [run_schedule] vs [run_sequential] array equality. *)
