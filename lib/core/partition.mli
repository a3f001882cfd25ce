(** Algorithm 1 — the recurrence partitioning scheme.

    Strategy selection, per the paper:
    - a single pair of coupled references with full-rank coefficient
      matrices → three-set partitioning + disjoint monotonic chains in [P2]
      (works with symbolic loop bounds);
    - otherwise, compile-time-known loop bounds → successive dataflow
      partitioning;
    - otherwise → the PDM uniformization of [27] (see
      {!Baselines.Pdm} in the baselines library). *)

type rec_plan = {
  simple : Depend.Solve.simple;
  pair : Depend.Depeq.t;
  three : Threeset.t;
}

type concrete_rec = {
  p1_pts : Points.t;  (** packed, in enumeration/scan order *)
  chains : Chain.t;
  p3_pts : Points.t;  (** packed, in enumeration/scan order *)
  growth : float;
  theorem_bound : int option;
}

type plan =
  | Rec_chains of rec_plan
      (** chains branch (single full-rank coupled pair) *)
  | Dataflow_const
      (** dataflow branch: constant bounds, partition via the exact
          instance graph ({!Dataflow.peel_concrete}) *)
  | Pdm_fallback of string
      (** neither hypothesis holds; the reason is given *)

val choose : Loopir.Ast.program -> plan
(** Selects the Algorithm 1 branch for a program. *)

val materialize_rec : rec_plan -> params:int array -> concrete_rec
(** Instantiates the symbolic three-set partition at concrete parameters:
    enumerates [P1]/[P3], decomposes [P2] into chains, and evaluates the
    Theorem 1 bound.  Raises {!Diag.Error} ([Param_arity],
    [Singular_recurrence], [Lemma1_violation], [Chain_cover], …) when the
    Lemma 1 hypotheses fail for this instance. *)

val materialize_rec_scan : rec_plan -> params:int array -> concrete_rec
(** Like {!materialize_rec} but classifying a direct scan of the iteration
    space against the symbolic sets (constraint evaluation only, no
    projection) — linear in [|Φ|], for paper-scale instances.  Raises
    {!Diag.Error} like {!materialize_rec}. *)

val materialize :
  rec_plan -> params:int array -> (concrete_rec, Diag.error) result
(** Result-based materialization — the pipeline entry point:
    {!materialize_rec_scan}, with {!Diag.Error} and symbolic blowups
    threaded as [Error].  {!materialize_rec} stays the enumeration
    reference the scan is tested against. *)

val rec_points_in_order : concrete_rec -> Linalg.Ivec.t list
(** Every iteration exactly once, in a legal execution order
    (P1, then chains interleaved, then P3) — used by invariant tests. *)
