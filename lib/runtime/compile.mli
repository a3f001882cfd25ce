(** Compiled statement kernels — what {!Exec} runs every statement
    instance through.

    Each statement is translated once into a range kernel that runs [n]
    consecutive instances of a schedule's flat phase array in order:
    coordinate [j] of the first instance is read at [a.(o + j)], in
    place ({!Sched.data} at {!Sched.coords}), and each next instance's
    coordinates start [w] ints further (the phase's {!Sched.width}), so
    no record or vector is loaded per instance.  Loop variables become
    coordinate indices, parameter values are folded in as constants,
    array references resolve to the page table and slab of a frozen
    {!Arrays.t}, and affine subscripts (recognized via {!Loopir.Affine})
    are pre-lowered into one fused linear offset
    [c + m₀·x₀ + m₁·x₁ + m₂·x₂ + m₃·x₃] over the instance's first four
    coordinates, read as slab cell [table.(off lsr shift) + (off land
    mask)].  A fused reference is data — the constant, the four
    coefficients, the page table and its shift — evaluated inline in the
    kernel's loop, so an instance performs one page-table read per
    reference, and no closure call, list traversal, string lookup or AST
    matching.

    Four statement shapes run with no closure call per instance or per
    reference, each instance's coordinates read once for all of its
    references: a copy, a constant, one binary operator over loads and
    constants, and the multiply-accumulate [x ± y·z].  They cover 40 of
    the builtin corpus's 42 statements ({!shape}).  Any other right-hand
    side is a tree of per-instance closures, each writing its value into
    a float slot of the {!scratch}, and its range kernel calls that tree
    once per instance; the domains of a phase share one compiled
    program, so each executing domain brings its own scratch.  A
    statement with a non-affine subscript first copies each instance's
    coordinates into the scratch's int vector, which
    {!Loopir.Eval_int}'s closures read.

    A kernel allocates nothing per instance: no float is returned from
    or passed to a closure (without flambda such a float is boxed).
    Inside a range the instances run in order, each reading its
    right-hand side before it finds its left-hand cell and each operator
    being the interpreter's own float operation, so a range leaves the
    store bit for bit as {!Interp.run_schedule} does on the same
    instances.

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
    back to {!Arrays.initial_value}.  Non-affine subscripts, and affine
    ones with a non-zero coefficient past the fourth coordinate, keep the
    exact interpreter semantics: their cell is found from the subscripts'
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

type shape =
  | Copy  (** a load stored *)
  | Constant  (** a constant stored *)
  | Binary  (** one binary operator over loads and constants *)
  | Mac  (** [x ± y·z] over loads and constants *)
  | Tree  (** any other statement: a per-instance closure tree *)

val shape : t -> int -> shape
(** [shape t stmt] is the shape statement [stmt] compiled to; every shape
    but [Tree] is fused: its range runs as one loop with its references'
    offsets inline. *)

type scratch
(** The float slots a kernel's general tree evaluates into, and the int
    vector a statement with a non-affine subscript copies its coordinates
    to.  A scratch belongs to one executing domain at a time. *)

val scratch : t -> scratch
(** A fresh scratch with room for every kernel of the program. *)

val exec_range : t -> scratch -> int -> int array -> int -> int -> int -> unit
(** [exec_range t sc stmt a o w n] runs statement [stmt]'s range kernel
    on [n] consecutive instances, in order, with the executing domain's
    scratch: the first instance's coordinates start at [a.(o)], and each
    next instance's [w] ints after the one before.  Nothing is checked
    per instance: the caller checks the vectors' length once per
    schedule ({!Sched.check_arity}). *)
