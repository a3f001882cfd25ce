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
  p1_pts : Points.t;  (** packed, in lexicographic order *)
  chains : Chain.t;
  p3_pts : Points.t;  (** packed, in lexicographic order *)
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

val lemma1 : Depend.Solve.simple -> (rec_plan, Diag.error) result
(** The REC branch's gate, Lemma 1's hypotheses on an analysed statement:
    a single coupled reference pair whose coefficient matrices A and B are
    both full rank, and a symbolic three-set partition computed without a
    set-algebra blowup.  Emits [partition/choose.rec] citing Lemma 1 when
    they hold, [partition/choose.reject_rec] with the reason otherwise.
    [Error (Unsupported why)] for a failed hypothesis, [Error (Set_blowup
    _)] for a blowup.  {!choose} and the forced [rec] and [unique]
    strategies all decide through it. *)

val choose : Loopir.Ast.program -> plan
(** Selects the Algorithm 1 branch for a program: {!lemma1} on the
    single-statement analysis, else dataflow for constant bounds, else
    PDM. *)

val materialize_rec : rec_plan -> params:int array -> concrete_rec
(** Instantiates the symbolic three-set partition at concrete parameters,
    set by set: lists [P1] and [P3] with {!Presburger.Iset.points},
    decomposes [P2] into chains from the points of [W]
    ({!Chain.decompose}), and evaluates the Theorem 1 bound over the
    points of Φ.  Raises {!Diag.Error} ([Param_arity],
    [Singular_recurrence], [Lemma1_violation], [Chain_cover], …) when the
    Lemma 1 hypotheses fail for this instance.  The reference the tests
    hold {!materialize_rec_scan} to. *)

val materialize_rec_scan : rec_plan -> params:int array -> concrete_rec
(** Like {!materialize_rec} but enumerating only the bound iteration
    space Φ ({!Presburger.Iset.points}, the statement's iterations in
    execution order) and classifying each point against the symbolic sets
    by constraint evaluation — linear in [|Φ|], for paper-scale
    instances.  Raises {!Diag.Error} like {!materialize_rec}. *)

val materialize :
  rec_plan -> params:int array -> (concrete_rec, Diag.error) result
(** Result-based materialization — the pipeline entry point:
    {!materialize_rec_scan}, with {!Diag.Error} and symbolic blowups
    threaded as [Error]. *)

val rec_points_in_order : concrete_rec -> Linalg.Ivec.t list
(** Every iteration exactly once, in a legal execution order
    (P1, then chains interleaved, then P3) — used by invariant tests. *)
