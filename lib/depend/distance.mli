(** Dependence distance sets and the uniform / non-uniform classification of
    §2, plus the coupled-subscript test used by the survey statistics
    (DESIGN.md E9). *)

type class_ = No_dependence | Uniform | Non_uniform

val distances :
  Presburger.Rel.t -> params:int array -> Linalg.Ivec.t list
(** Distinct distance vectors [j - i] of the concrete dependence relation,
    lexicographically sorted: the points of {!Presburger.Rel.deltas} at the
    bound parameters, scanned by {!Presburger.Iset.points}.  The cost
    follows the size of the distance set and its projection, not the
    number of dependence pairs. *)

val classify :
  Presburger.Rel.t ->
  phi:Presburger.Iset.t ->
  params:int array ->
  class_
(** Exact check of the paper's definition on a bounded instance: the
    relation is uniform iff for every distance [d] and every iteration [i]
    with [i], [i+d] both in [Φ], the pair [(i, i+d)] is a dependence.  Each
    such pair is tested with {!Presburger.Rel.mem}; the pairs of the
    relation are never enumerated. *)

val has_coupled_subscripts : Loopir.Prog.stmt_info -> bool
(** True when some array reference of the statement uses a loop index in two
    or more subscript positions (the classic "coupled subscripts"
    condition). *)

val class_to_string : class_ -> string
