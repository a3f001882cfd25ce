(** Strategy planning: every partitioning scheme — the paper's Algorithm 1
    branches and the baselines it is evaluated against — plans a program
    into a typed {!Plan.t}, with failures threaded as structured
    {!Diag.error}s.

    [auto] reproduces Algorithm 1's selection (REC if the single-pair
    full-rank hypotheses hold, else dataflow for constant bounds, else
    PDM); [plan] plans one forced scheme ([recpart run --strategy pdm],
    benchmark panels, tests). *)

val plan : Plan.strategy -> Loopir.Ast.program -> (Plan.t, Diag.error) result
(** The forced scheme's plan.  Symbolic planning only — no loop-bound
    parameters are consumed.  [Error] when the program is outside the
    scheme's hypotheses. *)

val auto : Loopir.Ast.program -> (Plan.t, Diag.error) result
(** Algorithm 1 strategy selection; never fails on the shapes the paper
    considers (degrades REC → dataflow → PDM), so an [Error] means even
    the PDM fallback cannot apply. *)

val analyze_simple :
  Loopir.Ast.program -> (Depend.Solve.simple, Diag.error) result
(** Result-based wrapper over {!Depend.Solve.analyze_simple} (shared by
    the strategies and the driver). *)
