(** Concrete dependence-DAG utilities: level sets (the successive fully
    parallel fronts of dataflow partitioning) and critical paths. *)

type t = {
  n : int;  (** number of nodes *)
  level : int array;  (** 1-based dataflow level of each node *)
  n_levels : int;  (** = number of dataflow partitioning steps *)
  level_sizes : int array;  (** nodes per level, index 0 = level 1 *)
}

val levels : n:int -> (int * int) list -> t
(** [levels ~n edges] computes longest-path layering of a DAG whose edges
    all satisfy [src < dst] (execution order), as produced by
    {!Trace.build}.  Level 1 nodes have no predecessors; level [k+1] nodes
    depend on some level-[k] node. *)

val of_trace : Trace.t -> t
