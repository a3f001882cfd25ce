(** Monotonic recurrence chains: the decomposition of the intermediate set
    [P2] into disjoint lexicographically increasing chains (Lemma 1), each
    executed sequentially by a WHILE loop with irregular stride.

    Chains are materialized for concrete parameter values; the symbolic
    artifacts ([W], the WHILE condition [Φ ∩ dom Rd]) stay in
    {!Threeset.t} / the code generator.

    Storage is flat: every point of every chain lives in one packed
    [int array] (chain-major, point-major), with an offset table marking
    chain boundaries — one allocation for the whole decomposition instead
    of one list cell + one boxed vector per point. *)

type t = {
  dim : int;  (** dimension of every point *)
  data : int array;
      (** packed points: chain [k] occupies points
          [offsets.(k) .. offsets.(k+1) - 1], each point [dim] cells *)
  offsets : int array;
      (** length [n_chains + 1]; [offsets.(0) = 0], last entry = total
          points *)
  longest : int;  (** length of the longest chain (0 when P2 is empty) *)
}

val n_chains : t -> int
val chain_length : t -> int -> int
val total_points : t -> int

val get : t -> int -> int -> Linalg.Ivec.t
(** [get t k i] is a fresh copy of point [i] of chain [k] (points are in
    lexicographic execution order within the chain). *)

val lengths : t -> int array
(** Per-chain point counts, indexed by chain id — the measured chain
    lengths the scheduler orders P2 work by (Theorem 1 bounds their
    maximum by [⌈log_a L⌉ + 1]). *)

val to_lists : t -> Linalg.Ivec.t list list
(** Unpacked view (one list per chain) — for tests, visualization and
    event evidence; allocates. *)

val of_lists : dim:int -> Linalg.Ivec.t list list -> t
(** Packs a list-of-lists chain decomposition. *)

(** Append-only construction: add the points of a chain in order, then
    close it with {!Builder.end_chain}. *)
module Builder : sig
  type chains := t
  type t

  val create : dim:int -> t
  val add_point : t -> Linalg.Ivec.t -> unit
  val end_chain : t -> unit
  (** Closes the current chain (no-op point set is allowed but produces an
      empty chain — callers normally add at least one point first). *)

  val finish : t -> chains
end

val decompose :
  three:Threeset.t ->
  rec_:Recurrence.t ->
  phi:Presburger.Iset.t ->
  params:int array ->
  t
(** [decompose ~three ~rec_ ~phi ~params] walks each start point of [W]
    forward through {!Recurrence.successor} while it stays intermediate.
    Raises {!Diag.Error} ([Lemma1_violation]/[Chain_cover]/
    [Outside_partition]) when the walk violates Lemma 1 (bifurcation) or
    fails to cover [P2] — callers fall back to dataflow partitioning. *)
