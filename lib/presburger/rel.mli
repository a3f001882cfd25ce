(** Integer relations between two named tuples, with trailing symbolic
    parameters — the dependence relations [Rd] of the paper.

    The underlying variable order is [inn ⧺ out ⧺ params]. *)

type t = private {
  inn : string array;
  out : string array;
  params : string array;
  polys : Poly.t list;
}

val make :
  inn:string array ->
  out:string array ->
  params:string array ->
  Poly.t list ->
  t

val empty : inn:string array -> out:string array -> params:string array -> t
val dim : t -> int
val names : t -> string array
val polys : t -> Poly.t list
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val is_empty : t -> bool
val equal : t -> t -> bool

val digest : t -> Numeric.Digest.t
(** Content digest of the three name tuples and the (order-sensitive)
    disjunct digests; memo key for {!dom}/{!ran}/{!deltas}/{!compose}. *)

val simplify : ?aggressive:bool -> t -> t

val inverse : t -> t
(** [inverse r] swaps input and output tuples. *)

val dom : t -> Iset.t
(** [dom r] projects onto the input tuple. *)

val ran : t -> Iset.t
(** [ran r] projects onto the output tuple. *)

val deltas : t -> Iset.t
(** [deltas r] is the distance set [{d | ∃i. (i, i+d) ∈ r}] of an
    equal-arity relation, exact and with the parameters still symbolic: one
    Omega projection ({!Omega.project_out_greedy}) after the unimodular
    substitution [j = i + d].  Its iteration variables are the input names
    prefixed with [d].  Memoized like {!dom}/{!ran}. *)

val to_set : t -> Iset.t
(** [to_set r] reads the relation as a set over [inn ⧺ out]. *)

val restrict_dom : t -> Iset.t -> t
(** [restrict_dom r s] keeps pairs whose input lies in [s] (a set over
    [inn], same params). *)

val restrict_ran : t -> Iset.t -> t

val compose : t -> t -> t
(** [compose r s] is [{(a,c) | ∃b. (a,b) ∈ r ∧ (b,c) ∈ s}]; requires
    [r.out] and [s.inn] to have the same length and both relations the same
    parameters. *)

val lex_forward : t -> t
(** [lex_forward r] keeps the pairs with [inn ≺ out] (requires equal tuple
    lengths) — the orientation used to build the paper's [Rd]. *)

val symmetric_closure_forward : t -> t
(** [(r ∪ r⁻¹) ∧ (inn ≺ out)]: the paper's eq. 4 — every dependence drawn as
    an arrow from the lexicographically earlier iteration. *)

val image : t -> params:int array -> int array -> int array list
(** [image r ~params i] enumerates the successors of the concrete iteration
    [i] under bound parameters. *)

val preimage : t -> params:int array -> int array -> int array list
val mem : t -> params:int array -> int array -> int array -> bool
val pp : Format.formatter -> t -> unit
