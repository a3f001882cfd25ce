(** Closure-compiled statement kernels — what {!Exec} runs every
    statement instance through.

    Each statement's LHS/RHS is translated once into an OCaml closure
    [(scratch, a, o)]: coordinate [j] of the instance's iteration vector
    is read at [a.(o + j)], in place in the schedule's flat phase array
    ({!Sched.data} at {!Sched.coords}), so no record or vector is loaded
    per instance.  Loop variables become coordinate indices, parameter
    values are folded in as constants, array references resolve to the
    page table and slab of a frozen {!Arrays.t}, and affine subscripts
    (recognized via {!Loopir.Affine}) are pre-lowered into a single fused
    linear offset [c + Σ mⱼ·a.(o + j)], read as slab cell
    [table.(off lsr shift) + (off land mask)] — so the per-instance hot
    loop performs one page-table read, and no list traversal, no string
    lookup and no AST matching.

    A kernel allocates nothing per instance.  No float is returned from
    or passed to a closure (without flambda such a float is boxed): an
    affine reference becomes an offset closure that returns its slab
    cell, an int.  The common statements — a copy, a constant, or one
    binary operator over loads and constants — load, compute and store
    in one closure.  Any other right-hand side is a tree of closures,
    each writing its value into a float slot of the {!scratch}; the
    domains of a phase share one compiled program, so each executing
    domain brings its own scratch.  A statement with a non-affine
    subscript first copies its coordinates into the scratch's int
    vector, which {!Loopir.Eval_int}'s closures read.

    Semantics match {!Interp.run_schedule} for every instance of the
    program's own iteration space.  The dry scan ({!Interp.scan_bounds})
    evaluated every affine subscript with checked arithmetic at both ends
    of its innermost loop and noted its extent; each of its subexpressions
    is linear in that index, so at every point in between it neither
    overflows nor leaves the noted extent, and the scan marked the page of
    every cell of that run.  Fused offsets therefore always land on a
    present page for scheduled instances.  Feeding iteration vectors from
    outside the scanned space is a programming error: a fused access that
    leaves the extent or meets an absent page then raises
    [Invalid_argument] (the OCaml array bounds check) instead of falling
    back to {!Arrays.initial_value}.  Non-affine subscripts keep the exact
    interpreter semantics: their cell is found from the subscripts'
    values on the array's page table, and a cell off the scanned pages
    goes through {!Arrays.read}/{!Arrays.write}, on a handle resolved
    once.

    {!Interp} remains the reference oracle: [Exec.check] compares a
    compiled run against [Interp.run_sequential] bit-for-bit. *)

type t

val program : Interp.env -> Arrays.t -> t
(** [program env store] compiles every statement of [env] against the
    frozen [store] (from {!Interp.scan_bounds} on the same [env]).
    Compiling never fails on a statement's names or constants, so a
    statement that never runs cannot fail the run, as in the
    interpreter: a variable bound neither by a loop nor by a parameter
    raises [Failure] when its kernel first runs, and a subscript whose
    affine form overflows gets the general kernel, whose checked
    arithmetic raises [Numeric.Safeint.Overflow] only when it runs. *)

val depths : t -> int array
(** Each statement's number of enclosing loops, the length of the
    iteration vectors its kernel reads ({!Sched.check_arity}). *)

type scratch
(** The float slots a kernel's general tree evaluates into, and the int
    vector a statement with a non-affine subscript copies its coordinates
    to.  A scratch belongs to one executing domain at a time. *)

val scratch : t -> scratch
(** A fresh scratch with room for every kernel of the program. *)

val exec_instance : t -> scratch -> int -> int array -> int -> unit
(** [exec_instance t sc stmt a o] runs statement [stmt]'s kernel on the
    instance whose coordinates start at [a.(o)], with the executing
    domain's scratch.  Nothing is checked per instance: the caller checks
    the vectors' length once per schedule ({!Sched.check_arity}). *)
