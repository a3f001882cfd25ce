(** Operations on unions of polyhedra (disjunctive normal form) over a
    common variable space.  {!Iset} and {!Rel} wrap these with variable-name
    bookkeeping.

    The big operators ({!inter}, {!diff}, {!simplify}) are memoized in
    digest-keyed {!Hc} tables.  Per-disjunct elimination runs on the
    calling domain. *)

val inter : Poly.t list -> Poly.t list -> Poly.t list
(** Pairwise conjunction. *)

val poly_diff : Poly.t -> Poly.t -> Poly.t list
(** [poly_diff a b] is [a \ b] as a disjoint union of polyhedra. *)

val diff : Poly.t list -> Poly.t list -> Poly.t list
(** Set difference of unions. *)

val is_empty : Poly.t list -> bool
val subset : Poly.t list -> Poly.t list -> bool
val equal : Poly.t list -> Poly.t list -> bool

val project_out : Poly.t list -> int list -> Poly.t list
(** Exact integer projection of every polyhedron. *)

val simplify : ?aggressive:bool -> Poly.t list -> Poly.t list
(** Drop empty disjuncts, normalize, and remove redundant constraints; with
    [~aggressive:true] also drop disjuncts subsumed by another disjunct. *)

val mem : Poly.t list -> int array -> bool
