(** Closure-compiled statement kernels — the compiled execution engine.

    Each statement's LHS/RHS is translated once into an OCaml closure over
    the [int array] iteration vector: loop variables become vector slots,
    parameter values are folded in as constants, array references resolve
    to the raw backing store of a frozen {!Arrays.t}, and affine
    subscripts (recognized via {!Loopir.Affine}) are pre-lowered into a
    single fused linear offset [c + Σ mⱼ·iterⱼ] — so the per-instance hot
    loop performs no list traversal, no string lookup and no AST matching.

    Semantics match {!Interp.exec_instance} for every instance of the
    program's own iteration space.  The dry scan ({!Interp.scan_bounds})
    evaluated every affine subscript with checked arithmetic at both ends
    of its innermost loop and noted its extent; each of its subexpressions
    is linear in that index, so at every point in between it neither
    overflows nor leaves the noted extent.  Fused offsets are therefore
    always in bounds for scheduled instances.  Feeding iteration vectors
    from outside the scanned space is a programming error: fused accesses
    then raise [Invalid_argument] (the OCaml array bounds check) instead
    of falling back to {!Arrays.initial_value}.  Non-affine subscripts
    keep the exact interpreter semantics (they go through
    {!Arrays.get}/{!Arrays.set}).

    {!Interp} remains the reference oracle: [Exec.check] compares a
    compiled run against [Interp.run_sequential] bit-for-bit. *)

type t

val program : Interp.env -> Arrays.t -> t
(** [program env store] compiles every statement of [env] against the
    frozen [store] (from {!Interp.scan_bounds} on the same [env]).
    Raises [Failure] on variables bound neither by a loop nor by a
    parameter, like the interpreter would at execution time. *)

val exec_instance : t -> Sched.instance -> unit
(** Runs one statement instance through its compiled kernel.  Raises
    [Failure] on an iteration arity mismatch, like
    {!Interp.exec_instance}. *)

val kernel : t -> int -> int array -> unit
(** [kernel t stmt] is the compiled kernel of statement [stmt] (exposed
    for benchmarks and tests). *)

(** {2 Lowering seam}

    The pieces of the closure compiler the bytecode engine ({!Bytecode})
    shares, so both engines compute identical fused addresses: loop-slot
    and parameter resolution, and the affine reference fusion against the
    live store. *)

type lowctx

val lowering : Interp.env -> Arrays.t -> Loopir.Prog.stmt_info -> lowctx
(** Lowering context of one statement: its loop-variable slot mapping
    (outermost first) and the bound parameters, against a frozen store. *)

val low_depth : lowctx -> int
(** Loop depth (= expected iteration-vector arity). *)

val low_slot : lowctx -> string -> int option
(** Iteration-vector slot of a loop variable. *)

val low_param : lowctx -> string -> float option
(** Bound parameter value, as the float the RHS evaluator would use. *)

val low_ref : lowctx -> string -> Loopir.Ast.expr list -> (float array * int * (int * int) list) option
(** Fused affine reference: [(data, c, [(j, m); …])] such that the cell
    is [data.(c + Σ m·iter.(j))] — exactly the offset the closure engine
    fuses.  [None] when a subscript is non-affine, the array was never
    scanned, or the rank mismatches (callers must fall back to the
    general {!Arrays.get}/{!Arrays.set} path to keep interpreter
    semantics). *)
