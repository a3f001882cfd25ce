(** Minimum-distance tiling (Punyamurtula, Chaudhary, Ju & Roy 1999 [19]),
    discussed in the paper's related work: adjacent iterations run in
    parallel as long as their distance is smaller than the minimum
    dependence distance in every dimension.

    Tile extent in dimension [k] is [min { |d_k| : d ∈ D, d_k ≠ 0 }]
    (unbounded when no distance uses the dimension).  Inside a tile no two
    iterations can differ by a dependence distance — every [d ∈ D] has some
    component at least as large as the tile extent — so tiles are internally
    fully parallel; tiles execute sequentially in lexicographic order of
    their origin.  The paper notes this yields a theoretical speedup of 4 on
    Example 2 (tile shape 1×4). *)

type t = {
  dim : int;
  extents : int option array;
      (** per-dimension tile extent; [None] = unbounded (dimension never
          constrained by a dependence) *)
}

val of_distances : dim:int -> Linalg.Ivec.t list -> t

val of_simple : Depend.Solve.simple -> params:int array -> t

val tile_parallelism : t -> int option
(** Product of the bounded extents — the intra-tile parallel degree (the
    paper's "4" for Example 2); [None] when some dimension is unbounded
    (whole-dimension parallelism). *)

val tiles : t -> Linalg.Ivec.t list -> (Linalg.Ivec.t * Linalg.Ivec.t list) list
(** The tiles the points fall in, in lexicographic order of origin: each
    tile's origin and its points, in input order. *)

val schedule : t -> stmt:int -> Linalg.Ivec.t list -> Runtime.Sched.t
(** One DOALL phase per tile of {!tiles}, labelled [tile(origin)]. *)
