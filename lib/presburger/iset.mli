(** Named integer sets: unions of polyhedra over iteration variables plus
    trailing symbolic parameters (e.g. loop bounds [N1], [N2]).

    All binary operations require both sides to live in the same space (same
    iteration and parameter names, in order). *)

type t = private {
  iters : string array;
  params : string array;
  polys : Poly.t list;
}

val make :
  iters:string array -> params:string array -> Poly.t list -> t
val universe : iters:string array -> params:string array -> t
val empty : iters:string array -> params:string array -> t

val names : t -> string array
(** [names s] is [iters ⧺ params] — the full variable space. *)

val dim : t -> int
val n_iters : t -> int
val polys : t -> Poly.t list
val same_space : t -> t -> bool
val add_poly : t -> Poly.t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val is_empty : t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool
val simplify : ?aggressive:bool -> t -> t

val points : t -> int array list
(** [points s] is every integer point of a parameter-free set (bind the
    parameters first with {!bind_params}), in lexicographic order without
    duplicates: {!Bounds.points} runs each disjunct's loop nest and merges
    the scans.  Raises [Invalid_argument] when parameters are left. *)

val digest : t -> Numeric.Digest.t
(** Content digest of the space names and (order-sensitive) disjunct
    digests; used as a memo key by {!Rel} and callers. *)

val mem : t -> int array -> bool
(** [mem s xs] with [xs] covering iteration variables and parameters. *)

val mem_iter : t -> params:int array -> int array -> bool
(** [mem_iter s ~params i] tests an iteration point under bound parameters. *)

val bind_params : t -> int array -> t
(** [bind_params s values] substitutes every parameter and drops it from the
    space. *)

val pp : Format.formatter -> t -> unit
