(** Operations on unions of polyhedra (disjunctive normal form) over a
    common variable space.  {!Iset} and {!Rel} wrap these with variable-name
    bookkeeping.

    The big operators ({!inter}, {!diff}, {!simplify}) are memoized in
    digest-keyed {!Hc} tables, and independent per-disjunct elimination work
    is spread over an injected worker pool (see {!set_runner}). *)

val set_runner : ((unit -> unit) array -> unit) option -> unit
(** Installs (or removes, with [None]) the parallel job runner used for
    independent disjunct elimination.  The runner must execute every job in
    the array before returning (a barrier) and re-raise the first job
    exception; once a job has raised, the jobs that have not started yet
    return at once, so a failure costs what it costs sequentially.
    [Runtime.Workers.install_dnf_runner] wires a worker pool in.
    Jobs never submit nested runner calls (re-entry falls back to
    sequential), but the runner itself must tolerate concurrent calls from
    several domains. *)

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
