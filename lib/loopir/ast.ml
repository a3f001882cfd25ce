type binop = Add | Sub | Mul | Div
type unop = Neg | Sqrt | Abs

type expr =
  | Int of int
  | Real of float
  | Var of string
  | Ref of string * expr list
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Min of expr list
  | Max of expr list
  | Mod of expr * expr
  | Pow of expr * int

type stmt = Assign of (string * expr list) * expr | Loop of loop

and loop = {
  index : string;
  lo : expr;
  hi : expr;
  step : int;
  body : stmt list;
}

type program = { name : string; params : string list; body : stmt list }

module SSet = Set.Make (String)

let rec expr_vars acc = function
  | Int _ | Real _ -> acc
  | Var v -> SSet.add v acc
  | Ref (_, subs) -> List.fold_left expr_vars acc subs
  | Bin (_, a, b) -> expr_vars (expr_vars acc a) b
  | Un (_, a) | Pow (a, _) -> expr_vars acc a
  | Min es | Max es -> List.fold_left expr_vars acc es
  | Mod (a, b) -> expr_vars (expr_vars acc a) b

let free_params body =
  let rec go bound free = function
    | Assign ((_, subs), rhs) ->
        let used = List.fold_left expr_vars (expr_vars SSet.empty rhs) subs in
        SSet.union free (SSet.diff used bound)
    | Loop l ->
        let used = expr_vars (expr_vars SSet.empty l.lo) l.hi in
        let free = SSet.union free (SSet.diff used bound) in
        let bound = SSet.add l.index bound in
        List.fold_left (go bound) free l.body
  in
  SSet.elements (List.fold_left (go SSet.empty) SSet.empty body)

let program ~name body = { name; params = free_params body; body }

let reused_index p =
  let rec go enclosing = function
    | Assign _ -> None
    | Loop l ->
        if List.mem l.index enclosing then Some l.index
        else List.find_map (go (l.index :: enclosing)) l.body
  in
  List.find_map (go []) p.body

let rec map_expr f e =
  let e =
    match e with
    | Int _ | Real _ | Var _ -> e
    | Ref (a, subs) -> Ref (a, List.map (map_expr f) subs)
    | Bin (op, a, b) -> Bin (op, map_expr f a, map_expr f b)
    | Un (op, a) -> Un (op, map_expr f a)
    | Min es -> Min (List.map (map_expr f) es)
    | Max es -> Max (List.map (map_expr f) es)
    | Mod (a, b) -> Mod (map_expr f a, map_expr f b)
    | Pow (a, k) -> Pow (map_expr f a, k)
  in
  f e

let rec map_expr_stmt f = function
  | Assign ((a, subs), rhs) ->
      Assign ((a, List.map (map_expr f) subs), map_expr f rhs)
  | Loop l ->
      Loop
        {
          l with
          lo = map_expr f l.lo;
          hi = map_expr f l.hi;
          body = List.map (map_expr_stmt f) l.body;
        }
