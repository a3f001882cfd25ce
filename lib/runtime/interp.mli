(** Reference interpreter for the mini-Fortran programs over the paged
    array store, plus schedule execution — the semantic ground truth used to
    validate every partitioning scheme: a legal schedule must leave the
    arrays exactly as the sequential run does.

    The interpreter stays a tree walker: every statement instance walks
    the AST through {!Loopir.Eval_int.eval}, never through
    {!Runtime.Compile} or {!Loopir.Eval_int.compile}, so the oracle shares
    no code path with the kernels it checks.  What it does resolve once
    per run is the scope: loop indices are bound by depth in one int array
    and looked up innermost first with [String.equal], then among the
    parameters (the first binding wins); subscripts are evaluated left to
    right into a scratch int array, and each array reference is resolved
    to its {!Arrays.handle} once per run, in a copy of the right-hand
    side that mirrors the AST node for node.  No assoc list or closure is
    built, and no array name hashed, per instance.

    The dry scan ({!scan_bounds}) is the one compiled part: it evaluates
    bounds and subscripts at the points the endpoint rule picks, through
    closures compiled once per statement. *)

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
(** Records the exact extent of every array the program touches and marks
    the cells its references reach, then freezes the store: only the pages
    holding a marked cell are allocated and seeded.

    The scan walks each statement's own enclosing loops, evaluating loop
    bounds at every point of its outer loops.  Inside the innermost loop, a
    reference whose subscripts are all affine ({!Loopir.Affine.of_expr})
    is evaluated only at the two ends: each of its subexpressions is
    linear in the innermost index, so its minimum and maximum over the
    loop are end values, and it is noted as the run between them
    ({!Arrays.note_run}), whose pages freeze finds from the two ends.
    Other references are evaluated, and noted, at every point.
    The extents therefore equal a per-point scan's, at a cost of
    O(outer iterations) for affine nests.  An array touched only inside
    empty loops stays absent.

    Bounds and subscripts are compiled once per statement with
    {!Loopir.Eval_int.compile} over one slot array: the bounds of loop [k]
    see only the slots below [k], the innermost binding of a name wins,
    and parameters are folded in as constants.  A name bound by neither
    raises [Failure] when it is evaluated, so a loop that never runs
    never fails.  Each reference holds its array's handle and two
    scratch int arrays, for its tuples at the low and the high end.

    The arithmetic is {!Loopir.Eval_int.eval}'s, checked, and an affine
    subexpression that would overflow at an inner point overflows at an
    end too.  So a program a per-point scan rejects is rejected here, with
    the same exception unless it holds two different failures: statements
    are scanned one after another in textual order, not interleaved as
    they execute.  Loops that enclose no statement are not visited. *)

val run_sequential : ?store:Arrays.t -> env -> Arrays.t
(** Executes the program in source order and returns the store: [store]
    when given — a frozen {!scan_bounds} of [env], or an {!Arrays.copy}
    of one, which the run overwrites — else a fresh scan.  The right-hand
    side is evaluated before the left-hand subscripts; a read outside the
    scanned extent or on an absent page yields {!Arrays.initial_value}, a
    write there raises [Invalid_argument] (the program's own instances
    only touch marked cells). *)

val exec_instance : env -> Arrays.t -> Sched.instance -> unit
(** Executes one statement instance (used by the executors). *)

val run_schedule : env -> Sched.t -> Arrays.t
(** Executes a schedule serially (phases in order, tasks in listed order) on
    a fresh store. *)

val check_schedule : env -> Sched.t -> (unit, string) result
(** [run_schedule] vs [run_sequential] array equality. *)
