open Ast

exception Not_integer of string

let rec eval env = function
  | Int k -> k
  | Var v -> env v
  | Bin (Add, a, b) -> Numeric.Safeint.add (eval env a) (eval env b)
  | Bin (Sub, a, b) -> Numeric.Safeint.sub (eval env a) (eval env b)
  | Bin (Mul, a, b) -> Numeric.Safeint.mul (eval env a) (eval env b)
  | Bin (Div, a, b) -> Numeric.Safeint.fdiv (eval env a) (eval env b)
  | Un (Neg, a) -> Numeric.Safeint.neg (eval env a)
  | Un (Abs, a) -> Numeric.Safeint.abs (eval env a)
  | Min es -> (
      match List.map (eval env) es with
      | [] -> raise (Not_integer "empty MIN")
      | v :: vs -> List.fold_left min v vs)
  | Max es -> (
      match List.map (eval env) es with
      | [] -> raise (Not_integer "empty MAX")
      | v :: vs -> List.fold_left max v vs)
  | Mod (a, b) -> Numeric.Safeint.emod (eval env a) (eval env b)
  | Pow (a, k) -> Numeric.Safeint.pow (eval env a) k
  | (Real _ | Ref _ | Un (Sqrt, _)) as e ->
      raise (Not_integer (Pretty.expr_to_string e))

(* [eval] case for case, with the tree walked once up front: operands are
   evaluated in [eval]'s order, and every failure of [eval]'s is raised by
   the closure, never by [compile]. *)
let rec compile ~var e =
  match e with
  | Int k -> fun _ -> k
  | Var v -> var v
  | Bin (Add, a, b) ->
      let fa = compile ~var a and fb = compile ~var b in
      fun env -> Numeric.Safeint.add (fa env) (fb env)
  | Bin (Sub, a, b) ->
      let fa = compile ~var a and fb = compile ~var b in
      fun env -> Numeric.Safeint.sub (fa env) (fb env)
  | Bin (Mul, a, b) ->
      let fa = compile ~var a and fb = compile ~var b in
      fun env -> Numeric.Safeint.mul (fa env) (fb env)
  | Bin (Div, a, b) ->
      let fa = compile ~var a and fb = compile ~var b in
      fun env -> Numeric.Safeint.fdiv (fa env) (fb env)
  | Un (Neg, a) ->
      let fa = compile ~var a in
      fun env -> Numeric.Safeint.neg (fa env)
  | Un (Abs, a) ->
      let fa = compile ~var a in
      fun env -> Numeric.Safeint.abs (fa env)
  | Min es -> (
      match List.map (compile ~var) es with
      | [] -> fun _ -> raise (Not_integer "empty MIN")
      | f :: fs -> fun env -> List.fold_left (fun m g -> min m (g env)) (f env) fs)
  | Max es -> (
      match List.map (compile ~var) es with
      | [] -> fun _ -> raise (Not_integer "empty MAX")
      | f :: fs -> fun env -> List.fold_left (fun m g -> max m (g env)) (f env) fs)
  | Mod (a, b) ->
      let fa = compile ~var a and fb = compile ~var b in
      fun env -> Numeric.Safeint.emod (fa env) (fb env)
  | Pow (a, k) ->
      let fa = compile ~var a in
      fun env -> Numeric.Safeint.pow (fa env) k
  | Real _ | Ref _ | Un (Sqrt, _) ->
      let msg = Pretty.expr_to_string e in
      fun _ -> raise (Not_integer msg)
