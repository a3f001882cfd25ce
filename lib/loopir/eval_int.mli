(** Integer evaluation of index expressions (subscripts and loop bounds)
    under an environment binding loop indices and parameters.  Division is
    floor division, matching the normalized-bound semantics.  {!eval}
    walks the expression; {!compile} walks it once and returns a closure
    with the same semantics, for expressions evaluated many times. *)

exception Not_integer of string
(** Raised on value-domain constructs (reals, array references, SQRT). *)

val eval : (string -> int) -> Ast.expr -> int

val compile : var:(string -> 'env -> int) -> Ast.expr -> 'env -> int
(** [compile ~var e] is [fun env -> eval (fun v -> var v env) e], with
    [var] called once per occurrence of a variable, at compile time: it
    resolves the name to its lookup in ['env] (say, a loop-index slot of an
    [int array]) or to a constant.  Checked arithmetic, operand order and
    failures are {!eval}'s; [Not_integer] and overflow are raised when the
    closure runs, so an expression that is never evaluated never fails. *)
