(** Flat-bytecode execution engine — the second-generation compiled
    engine.

    The closure engine ({!Compile}) killed AST walking but still pays one
    OCaml closure call, one boxed [Sched.instance] record and one boxed
    iteration vector per statement instance.  This engine lowers each
    statement once more, into a flat int-coded postfix instruction stream
    (ops + inline operand tables) held in a [Bigarray] buffer, and
    executes whole P1 blocks / P2 chains / P3 blocks with a single tight
    [match]-loop dispatch over a packed int work buffer — no per-instance
    closure call, record traversal or allocation.

    {2 Format}

    One instruction stream holds every statement; [entry] maps a
    statement id to its first pc (or -1 for the closure fallback).
    Instructions execute linearly — postfix evaluation over a small float
    scratch stack — and every stream ends in a store form that terminates
    the instance.  Array references are encoded inline as
    [tbl; c; n; m₀; j₀; …]: the cell is
    [tables.(tbl).(c + Σ mₖ·iter.(jₖ))], the same fused affine offset the
    closure engine computes (both engines share the {!Compile} lowering
    seam, so the address arithmetic is identical by construction).  A
    peephole pass fuses the dominant whole-statement shapes — copy,
    load⊕load, load⊕const — into single superinstructions, so most corpus
    kernels execute one dispatch per instance.

    {2 Semantics and fallback}

    Statements the flat encoding cannot express bit-for-bit — non-affine
    or unscanned references (whose general path carries the
    {!Arrays.initial_value} fallback), and integer [MOD] (checked
    euclidean semantics) — keep their {!Compile} closure kernel and are
    dispatched through it per instance; everything else never leaves the
    VM loop.  {!Interp.run_sequential} remains the bit-for-bit oracle
    either way ([Exec.check], and the differential corpus suite).

    Fused accesses use unchecked array reads/writes.  The dry scan
    ({!Interp.scan_bounds}) evaluated every affine subscript at both ends
    of its innermost loop, where it takes its extremes, so the offsets of
    scheduled instances are always in bounds.
    Feeding instances from outside the scanned iteration space is a
    programming error (the closure engine raises [Invalid_argument]
    there; this engine's behaviour is then undefined).

    Instrumented under [runtime.bytecode.*]: counters [stmts],
    [fallbacks], [code_words]. *)

type t
(** A compiled program: instruction stream, literal/array tables, closure
    fallbacks. *)

val compile : Interp.env -> Arrays.t -> t
(** [compile env store] lowers every statement of [env] against the
    frozen [store] (from {!Interp.scan_bounds} on the same [env]).
    Raises [Failure] on unbound variables, exactly like
    {!Compile.program}. *)

type work
(** A phase's instances packed into one flat [Bigarray] int buffer
    ([stride] cells per instance: statement id + padded iteration
    vector).  Work units are tasks (chains) for [Tasks] phases, the whole
    instance array for [Doall] — executors address work as
    [(unit, offset, length)] triples, so chunk setup copies nothing. *)

val pack : t -> Sched.phase -> work
(** Packs a phase (engine setup; do it outside timed regions).  Raises
    [Failure] on an iteration arity mismatch. *)

val unit_sizes : work -> int array
(** Instance count per work unit. *)

val stride : t -> int
(** Work-buffer cells per instance ([1 + max loop depth]). *)

type scratch
(** Per-domain evaluation stack; create one per executing domain (the
    compiled program itself is immutable and safely shared). *)

val scratch : t -> scratch

val exec_range : t -> scratch -> work -> unit_:int -> off:int -> len:int -> unit
(** [exec_range t s w ~unit_ ~off ~len] executes instances
    [off … off+len-1] of work unit [unit_] in order.  Raises
    [Invalid_argument] when the range exceeds the unit. *)

val n_fallbacks : t -> int
(** Statements executing through the closure fallback (0 for fully
    affine programs — exposed for tests and benchmarks). *)

val code_words : t -> int
(** Length of the instruction stream, in int cells. *)
