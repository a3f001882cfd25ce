(** Loop-bound extraction from convex integer sets (Fourier–Motzkin, as in
    the DOALLCodeGeneration step of Algorithm 1 [3,13]), and the scanner
    that enumerates a bounded set by running those loops: the library's
    one point enumerator ({!points}).

    For each nesting level the variable's lower bounds are ceiling
    divisions [⌈e/c⌉] and its upper bounds floor divisions [⌊e/c⌋] of
    affine expressions over outer variables and parameters.  Constraints
    that are not representable as bounds of their deepest variable (e.g.
    divisibility/stride constraints) become guards, attached at the first
    level where all their variables are available.  Bounds at each level
    come from a rational-relaxation projection (real shadow), which may
    overshoot; the guards keep the enumerated set exact. *)

type bound = { num : Linexpr.t; den : int }
(** [⌈num/den⌉] or [⌊num/den⌋] depending on the side; [den ≥ 1]. *)

type level = {
  lowers : bound list;  (** max of ceilings *)
  uppers : bound list;  (** min of floors *)
  guards : Constr.t list;
  stride : (int * Linexpr.t) option;
      (** [(m, r)]: iterate with step [m] starting at
          [lo + ((r - lo) mod m)] — the loop-stride form of a divisibility
          guard, as in the paper's step-3 DOALL loops.  [r] is affine over
          outer variables and parameters. *)
}

type nest = { n_iters : int; levels : level array }

exception Unbounded of int
(** A level has no lower or no upper bound (argument = level). *)

val of_poly : n_iters:int -> Poly.t -> nest
(** [of_poly ~n_iters p] extracts a nest for the first [n_iters] dimensions
    of [p] (remaining dimensions are parameters, always in scope). *)

val with_strides : nest -> nest
(** Converts, at every level, one divisibility guard [m | c·v + g] with
    [gcd(c, m) = 1] into a loop stride ([v ≡ -c⁻¹·g (mod m)]); remaining
    guards stay guards.  The enumerated set is unchanged. *)

val scan : nest -> int array list
(** [scan nest] runs the loops of a nest over a parameter-free space (every
    dimension is an iteration variable) and returns the points whose guards
    hold, in loop order, i.e. lexicographically increasing.  The relaxed
    bounds only widen the ranges; the guards and the exact bounds of each
    level's own constraints make the result exactly the polyhedron's
    integer points.  No Omega call is made. *)

val points : int -> Poly.t list -> int array list
(** [points n polys] is the set of integer points of the union of [polys]
    (each of dimension [n], parameters already bound), lexicographically
    sorted and duplicate-free: {!scan} over each disjunct's strided nest,
    the scans (each already increasing and duplicate-free) merged with
    the points shared by overlapping disjuncts kept once.  This is the
    library's one point enumerator ({!Iset.points} reads a set through
    it).  Raises {!Unbounded} when a disjunct's rational relaxation is
    unbounded and [Invalid_argument] when a disjunct has another
    dimension. *)
