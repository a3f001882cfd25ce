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

type memo
(** An env's record of its first scan (see {!scan_bounds}). *)

type env = private {
  prog : Loopir.Ast.program;  (** normalized *)
  params : (string * int) list;
  stmts : Loopir.Prog.stmt_info array;  (** indexed by statement id *)
  memo : memo;  (** built and set only by this module *)
}

val prepare : Loopir.Ast.program -> params:(string * int) list -> env
(** Normalizes the program and binds parameters; scans nothing.  Raises
    [Invalid_argument] when a loop reuses the index of an enclosing loop
    ({!Loopir.Ast.reused_index}), and [Failure] on an unbound
    parameter. *)

val scan_bounds : env -> Arrays.t
(** A fresh frozen store for [env]'s program, whose cells hold their
    initial values.  The caller owns it: no other call returns it or
    shares its cells.

    The env's first successful call scans: it records the exact extent of
    every array the program touches and marks the cells its references
    reach, then freezes the store, so that only the pages holding a
    marked cell are allocated and seeded.  It keeps an {!Arrays.image} of
    that store with the env.  Every later call walks nothing: it returns
    {!Arrays.of_image} of the image, equal bit for bit to a fresh scan,
    in one copy of the seeded cells.  The image lives and dies with its
    env.  Two domains may call this on one fresh env at once: both may
    scan, each gets a store of its own, and the image is recorded once.
    A scan that raises records nothing, so every call raises again.

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

val run_sequential : env -> Arrays.t
(** Executes the program in source order on a fresh {!scan_bounds} of
    [env] (a copy of its image after the env's first scan) and returns
    that store.  The right-hand side is evaluated before the left-hand
    subscripts; a read outside the scanned extent or on an absent page
    yields {!Arrays.initial_value}, a write there raises
    [Invalid_argument] (the program's own instances only touch marked
    cells). *)

val run_schedule : env -> Sched.t -> Arrays.t
(** Executes a schedule serially (phases in order, tasks in listed order) on
    a fresh {!scan_bounds} of [env], each instance's loop indices read in
    place from its phase array.  Raises [Failure] when the schedule's
    vectors do not fit the program ({!Sched.check_arity}, once per
    schedule).  An instance outside the program's iteration space reads
    {!Arrays.initial_value} off the scanned extent and raises
    [Invalid_argument] on a write there, as {!run_sequential} would. *)

val check_schedule : env -> Sched.t -> (unit, string) result
(** [run_schedule] vs [run_sequential] array equality: one scan of [env],
    and a copy of its image for the other run. *)
