(** Pseudo-Fortran emission of the partitioned programs — the counterpart
    of the paper's generated-code listings (Examples 1–3).

    DOALL nests are printed per convex disjunct with CEILDIV/FLOORDIV
    bounds and MOD guards; the intermediate set becomes DOALL loops over
    the chain start set [W] whose body calls a WHILE-loop chain subroutine
    stepping [I := I·T + u]. *)

val pp_bound_max :
  string array -> Format.formatter -> Presburger.Bounds.bound list -> unit

val pp_bound_min :
  string array -> Format.formatter -> Presburger.Bounds.bound list -> unit

val doall_of_set :
  ?body:string -> names:string array -> Presburger.Iset.t -> string
(** One DOALL nest per disjunct; [body] defaults to ["s(<iters>)"].
    Unbounded or empty disjuncts are commented accordingly. *)

val rec_partitioning : Core.Partition.rec_plan -> string
(** The full three-part listing: P1, the W DOALL calling the chain
    subroutine, P3, and the chain subroutine itself. *)

val dataflow_listing :
  Presburger.Iset.t list -> names:string array -> string
(** One fully parallel DOALL region per dataflow front. *)
