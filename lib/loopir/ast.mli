(** Abstract syntax of the mini-Fortran loop language used throughout the
    reproduction: normalized DO-loop nests (possibly imperfect) over real
    arrays with affine subscripts — the program model of §2 of the paper. *)

type binop = Add | Sub | Mul | Div
(** [Div] is floor division in index contexts and real division in value
    contexts. *)

type unop = Neg | Sqrt | Abs

type expr =
  | Int of int
  | Real of float
  | Var of string  (** loop index or symbolic parameter *)
  | Ref of string * expr list  (** array element [a(e1, …, ek)] *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Min of expr list
  | Max of expr list
  | Mod of expr * expr
  | Pow of expr * int

type stmt =
  | Assign of (string * expr list) * expr
      (** [a(subs) = rhs]; the only side-effecting statement form. *)
  | Loop of loop

and loop = {
  index : string;
  lo : expr;
  hi : expr;
  step : int;  (** non-zero; 1 after {!Normalize.unit_strides} *)
  body : stmt list;
}

type program = { name : string; params : string list; body : stmt list }
(** [params] are the symbolic constants (e.g. loop bound [N]) appearing free
    in the program, sorted. *)

val free_params : stmt list -> string list
(** Identifiers used as scalars but never bound as a loop index. *)

val program : name:string -> stmt list -> program
(** Builds a program, inferring {!program.params}. *)

val reused_index : program -> string option
(** The index of the first loop, in source order, that reuses the index of
    an enclosing loop.  Such nests have no consistent meaning (which
    binding does a subscript see?), so {!Parser.parse} rejects them and
    [Runtime.Interp.prepare] refuses them. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up expression rewriting. *)

val map_expr_stmt : (expr -> expr) -> stmt -> stmt
(** Applies a function to every expression of a statement (subscripts,
    bounds, right-hand sides), recursing into loop bodies. *)
