(** Closure-compiled statement kernels — what {!Exec} runs every
    statement instance through.

    Each statement's LHS/RHS is translated once into an OCaml closure over
    the [int array] iteration vector: loop variables become vector slots,
    parameter values are folded in as constants, array references resolve
    to the page table and slab of a frozen {!Arrays.t}, and affine
    subscripts (recognized via {!Loopir.Affine}) are pre-lowered into a
    single fused linear offset [o = c + Σ mⱼ·iterⱼ], read as slab cell
    [table.(o lsr shift) + (o land mask)] — so the per-instance hot loop
    performs one page-table read, and no list traversal, no string lookup
    and no AST matching.

    A kernel allocates nothing per instance.  No float is returned from
    or passed to a closure (without flambda such a float is boxed): an
    affine reference becomes an offset closure that returns its slab
    cell, an int.  The common statements — a copy, a constant, or one
    binary operator over loads and constants — load, compute and store
    in one closure.  Any other right-hand side is a tree of closures,
    each writing its value into a slot of a float {!scratch}; the domains
    of a phase share one compiled program, so each executing domain
    brings its own scratch.

    Semantics match {!Interp.exec_instance} for every instance of the
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

type scratch = float array
(** The float slots a kernel's general tree evaluates into.  A scratch
    belongs to one executing domain at a time. *)

val scratch : t -> scratch
(** A fresh scratch with room for every kernel of the program. *)

val exec_instance : t -> scratch -> Sched.instance -> unit
(** Runs one statement instance through its compiled kernel, with the
    executing domain's scratch.  Raises [Failure] on an iteration arity
    mismatch, like {!Interp.exec_instance}. *)
