(** Exact integer variable elimination and emptiness — the Omega test
    (Pugh, CACM 1992), the engine the paper relies on for solving dependence
    relations exactly.

    Elimination of one variable from a polyhedron returns a {e union} of
    polyhedra whose integer points are exactly the projection:
    - an equality pivot substitutes the variable, adding a divisibility
      constraint when the pivot coefficient exceeds 1;
    - divisibility constraints mentioning the variable are removed first by
      branching on the residue class of the variable;
    - otherwise Fourier–Motzkin combines bound pairs: when every pair has a
      unit coefficient the real shadow is exact, else the result is the dark
      shadow plus Pugh's splinter equalities. *)

exception Blowup of string
(** Raised when elimination exceeds the work budget (never silently
    approximate). *)

val eliminate : Poly.t -> int -> Poly.t list
(** [eliminate p k] is the exact integer projection of [p] along variable
    [k]; the results have dimension [dim p - 1] (variables above [k] are
    renumbered down). *)

val project_out : Poly.t -> int list -> Poly.t list
(** [project_out p ks] eliminates every variable in [ks] (any order). *)

val project_out_greedy : Poly.t -> int list -> Poly.t list
(** [project_out_greedy p ks] is the same set as {!project_out}, but every
    disjunct eliminates its cheapest remaining variable next, by the cost
    heuristic {!is_empty} uses: unit-coefficient equality pivots first,
    residue branching last.  Where equalities couple the variables this
    often gives far fewer disjuncts than the fixed order, and avoids
    splinter blowups the fixed order runs into.  Not memoized; {!Rel.deltas}
    memoizes its result. *)

val is_empty : Poly.t -> bool
(** [is_empty p] decides whether [p] contains an integer point. *)

val max_branch_modulus : int
(** Residue branching on a divisibility constraint with modulus above this,
    or a Fourier–Motzkin step needing more splinters than this for one
    lower bound, raises {!Blowup}.  Splinters count against the work budget
    like elimination calls. *)
