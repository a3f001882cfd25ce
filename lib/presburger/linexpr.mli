(** Affine integer expressions [c₀ + Σ cᵢ·xᵢ] over a fixed number of
    variables, the atoms of all Presburger constraints in this library. *)

type t = { n : int; coef : int array; const : int }
(** [coef] has length [n]; the expression denotes
    [const + Σ coef.(k)·x_k]. *)

val make : int array -> int -> t
val zero : int -> t
val const : int -> int -> t
(** [const n c] is the constant [c] over [n] variables. *)

val var : int -> int -> t
(** [var n k] is the single variable [x_k] over [n] variables. *)

val dim : t -> int
val coeff : t -> int -> int
val constant : t -> int
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : t -> int -> t

val equal : t -> t -> bool
(** Physical equality is checked first; hash-consed callers compare shared
    expressions in O(1). *)

val feed : Numeric.Digest.t -> t -> Numeric.Digest.t
(** Feeds the full syntactic content ([n], coefficients, constant) into a
    running content digest. *)

val eval : t -> int array -> int
(** [eval e xs] evaluates [e] at the point [xs] (length [n]). *)

val eval_partial : t -> int array -> int -> int
(** [eval_partial e xs k] evaluates the first [k] variables of [e] at
    [xs.(0..k-1)], treating the coefficients of later variables as an error;
    raises [Invalid_argument] if any variable ≥ [k] has a non-zero
    coefficient. *)

val content : t -> int
(** [content e] is the gcd of the variable coefficients (0 when all are 0). *)

val vars : t -> int list
(** [vars e] lists the indices with non-zero coefficient, increasing. *)

val uses : t -> int -> bool

val set_coeff : t -> int -> int -> t

val subst : t -> int -> t -> t
(** [subst e k r] replaces [x_k] by the expression [r] in [e]; requires
    [coeff r k = 0]. *)

val assign : t -> int -> int -> t
(** [assign e k v] replaces [x_k] by the constant [v]. *)

val drop_var : t -> int -> t
(** [drop_var e k] removes dimension [k] (which must have zero coefficient),
    renumbering the higher variables down by one. *)

val extend : t -> int -> t
(** [extend e n'] re-reads [e] in a space of [n' ≥ n] variables (new
    trailing variables have zero coefficients). *)

val remap : t -> int -> int array -> t
(** [remap e n' perm] re-reads [e] in a space of [n'] variables where old
    variable [k] becomes variable [perm.(k)]. *)

val pp : string array -> Format.formatter -> t -> unit
(** [pp names ppf e] prints [e] using [names] for the variables. *)
