module Ast = Loopir.Ast
module Prog = Loopir.Prog
module Affine = Loopir.Affine
module S = Numeric.Safeint

type t = { kernels : (int array -> unit) array }

(* Compilation of one statement happens in the context of its loop-variable
   slot mapping (outermost first, matching the [iter] vectors built by
   [Sched]) and the parameter values — both resolved exactly once. *)
type ctx = {
  vars : string array;  (** loop variables, outermost first *)
  params : (string * int) list;
  store : Arrays.t;
}

(* The loop indices of a nest are distinct ([Interp.prepare] refuses a loop
   that reuses an enclosing loop's index), so a name has at most one
   slot. *)
let slot ctx name =
  let n = Array.length ctx.vars in
  let rec find j =
    if j = n then None else if ctx.vars.(j) = name then Some j else find (j + 1)
  in
  find 0

let param ctx name = List.assoc_opt name ctx.params

(* ---- integer expressions --------------------------------------------- *)

(* Affine form over iteration slots with parameters folded into the
   constant: value(iter) = a_const + Σⱼ a_coefs.(j)·iter.(j). *)
type aff = { a_const : int; a_coefs : int array }

let affine_of ctx e =
  match Affine.of_expr e with
  | None -> None
  | Some { Affine.terms; const } ->
      let coefs = Array.make (Array.length ctx.vars) 0 in
      let const = ref const in
      let ok =
        List.for_all
          (fun (name, c) ->
            match slot ctx name with
            | Some j ->
                coefs.(j) <- coefs.(j) + c;
                true
            | None -> (
                match param ctx name with
                | Some v ->
                    const := !const + (c * v);
                    true
                | None -> false))
          terms
      in
      if ok then Some { a_const = !const; a_coefs = coefs } else None

(* General (non-affine) integer evaluation: the {!Loopir.Eval_int}
   semantics — checked arithmetic included — with variable lookups
   resolved to slots/constants at compile time. *)
let rec cint ctx e : int array -> int =
  match e with
  | Ast.Int k -> fun _ -> k
  | Ast.Var v -> (
      match slot ctx v with
      | Some j -> fun it -> it.(j)
      | None -> (
          match param ctx v with
          | Some k -> fun _ -> k
          | None ->
              failwith (Printf.sprintf "Compile: unbound variable %s" v)))
  | Ast.Bin (Ast.Add, a, b) ->
      let fa = cint ctx a and fb = cint ctx b in
      fun it -> S.add (fa it) (fb it)
  | Ast.Bin (Ast.Sub, a, b) ->
      let fa = cint ctx a and fb = cint ctx b in
      fun it -> S.sub (fa it) (fb it)
  | Ast.Bin (Ast.Mul, a, b) ->
      let fa = cint ctx a and fb = cint ctx b in
      fun it -> S.mul (fa it) (fb it)
  | Ast.Bin (Ast.Div, a, b) ->
      let fa = cint ctx a and fb = cint ctx b in
      fun it -> S.fdiv (fa it) (fb it)
  | Ast.Un (Ast.Neg, a) ->
      let fa = cint ctx a in
      fun it -> S.neg (fa it)
  | Ast.Un (Ast.Abs, a) ->
      let fa = cint ctx a in
      fun it -> S.abs (fa it)
  | Ast.Min es -> (
      match List.map (cint ctx) es with
      | [] -> failwith "Compile: empty MIN"
      | f :: fs -> fun it -> List.fold_left (fun m g -> min m (g it)) (f it) fs)
  | Ast.Max es -> (
      match List.map (cint ctx) es with
      | [] -> failwith "Compile: empty MAX"
      | f :: fs -> fun it -> List.fold_left (fun m g -> max m (g it)) (f it) fs)
  | Ast.Mod (a, b) ->
      let fa = cint ctx a and fb = cint ctx b in
      fun it -> S.emod (fa it) (fb it)
  | Ast.Pow (a, k) ->
      let fa = cint ctx a in
      fun it -> S.pow (fa it) k
  | Ast.Real _ | Ast.Ref _ | Ast.Un (Ast.Sqrt, _) ->
      failwith
        (Printf.sprintf "Compile: non-integer subscript %s"
           (Loopir.Pretty.expr_to_string e))

(* Integer evaluator with the affine fast path: affine expressions use raw
   machine arithmetic.  The dry scan evaluated each affine subscript with
   checked arithmetic at both ends of its innermost loop; every
   subexpression is linear in that index, so at the points in between it
   lies between its end values and cannot overflow either.  Wrapping
   arithmetic is exact modulo 2^63, so the canonical form [c + Σ m·iter]
   yields that in-range value however its terms are grouped. *)
let cint_value ctx e : int array -> int =
  match affine_of ctx e with
  | Some { a_const; a_coefs } -> (
      let nz = ref [] in
      Array.iteri (fun j c -> if c <> 0 then nz := (j, c) :: !nz) a_coefs;
      match List.rev !nz with
      | [] -> fun _ -> a_const
      | [ (j0, c0) ] -> fun it -> a_const + (c0 * it.(j0))
      | [ (j0, c0); (j1, c1) ] ->
          fun it -> a_const + (c0 * it.(j0)) + (c1 * it.(j1))
      | pairs ->
          let slots = Array.of_list (List.map fst pairs) in
          let coefs = Array.of_list (List.map snd pairs) in
          let n = Array.length slots in
          fun it ->
            let acc = ref a_const in
            for j = 0 to n - 1 do
              acc := !acc + (coefs.(j) * it.(slots.(j)))
            done;
            !acc)
  | None -> cint ctx e

(* ---- array references ------------------------------------------------ *)

(* Fused linear offset of an all-affine subscript list against a raw array
   view: offset(iter) = c + Σⱼ mⱼ·iter.(j), with the extent lo offsets and
   the parameter parts of every subscript folded into [c]. *)
let fuse_offset ctx (view : Arrays.view) affs =
  let depth = Array.length ctx.vars in
  let ms = Array.make depth 0 in
  let c = ref 0 in
  List.iteri
    (fun k { a_const; a_coefs } ->
      let stride = view.Arrays.v_strides.(k) in
      c := !c + (stride * (a_const - view.Arrays.v_lo.(k)));
      Array.iteri (fun j m -> ms.(j) <- ms.(j) + (stride * m)) a_coefs)
    affs;
  let nz = ref [] in
  Array.iteri (fun j m -> if m <> 0 then nz := (j, m) :: !nz) ms;
  (!c, List.rev !nz)

let fused_load view c nz =
  let data = view.Arrays.v_data in
  match nz with
  | [] -> fun _ -> data.(c)
  | [ (j0, m0) ] -> fun it -> data.(c + (m0 * it.(j0)))
  | [ (j0, m0); (j1, m1) ] -> fun it -> data.(c + (m0 * it.(j0)) + (m1 * it.(j1)))
  | pairs ->
      let slots = Array.of_list (List.map fst pairs) in
      let ms = Array.of_list (List.map snd pairs) in
      let n = Array.length slots in
      fun it ->
        let off = ref c in
        for j = 0 to n - 1 do
          off := !off + (ms.(j) * it.(slots.(j)))
        done;
        data.(!off)

let fused_store view c nz =
  let data = view.Arrays.v_data in
  match nz with
  | [] -> fun _ v -> data.(c) <- v
  | [ (j0, m0) ] -> fun it v -> data.(c + (m0 * it.(j0))) <- v
  | [ (j0, m0); (j1, m1) ] ->
      fun it v -> data.(c + (m0 * it.(j0)) + (m1 * it.(j1))) <- v
  | pairs ->
      let slots = Array.of_list (List.map fst pairs) in
      let ms = Array.of_list (List.map snd pairs) in
      let n = Array.length slots in
      fun it v ->
        let off = ref c in
        for j = 0 to n - 1 do
          off := !off + (ms.(j) * it.(slots.(j)))
        done;
        data.(!off) <- v

(* The affine views of a subscript list, when every subscript is affine
   and the array has a raw view (it was noted during the dry scan). *)
let fused_of ctx name subs =
  match Arrays.view ctx.store name with
  | None -> None
  | Some view ->
      if List.length subs <> Array.length view.Arrays.v_lo then None
      else
        let rec all acc = function
          | [] -> Some (List.rev acc)
          | s :: rest -> (
              match affine_of ctx s with
              | Some a -> all (a :: acc) rest
              | None -> None)
        in
        Option.map (fun affs -> (view, fuse_offset ctx view affs)) (all [] subs)

(* Non-affine (or unscanned-array) references keep the exact interpreter
   semantics, including the [initial_value] fallback of {!Arrays.get}. *)
let general_load ctx name subs =
  let fs = List.map (cint_value ctx) subs in
  let store = ctx.store in
  fun it -> Arrays.get store name (List.map (fun f -> f it) fs)

let general_store ctx name subs =
  let fs = List.map (cint_value ctx) subs in
  let store = ctx.store in
  fun it v -> Arrays.set store name (List.map (fun f -> f it) fs) v

(* ---- float expressions ----------------------------------------------- *)

let rec cfloat ctx e : int array -> float =
  match e with
  | Ast.Int k ->
      let v = float_of_int k in
      fun _ -> v
  | Ast.Real r -> fun _ -> r
  | Ast.Var v -> (
      match slot ctx v with
      | Some j -> fun it -> float_of_int it.(j)
      | None -> (
          match param ctx v with
          | Some k ->
              let v = float_of_int k in
              fun _ -> v
          | None ->
              failwith (Printf.sprintf "Compile: unbound variable %s" v)))
  | Ast.Ref (a, subs) -> (
      match fused_of ctx a subs with
      | Some (view, (c, nz)) -> fused_load view c nz
      | None -> general_load ctx a subs)
  | Ast.Bin (Ast.Add, a, b) ->
      let fa = cfloat ctx a and fb = cfloat ctx b in
      fun it -> fa it +. fb it
  | Ast.Bin (Ast.Sub, a, b) ->
      let fa = cfloat ctx a and fb = cfloat ctx b in
      fun it -> fa it -. fb it
  | Ast.Bin (Ast.Mul, a, b) ->
      let fa = cfloat ctx a and fb = cfloat ctx b in
      fun it -> fa it *. fb it
  | Ast.Bin (Ast.Div, a, b) ->
      let fa = cfloat ctx a and fb = cfloat ctx b in
      fun it -> fa it /. fb it
  | Ast.Un (Ast.Neg, a) ->
      let fa = cfloat ctx a in
      fun it -> -.fa it
  | Ast.Un (Ast.Sqrt, a) ->
      let fa = cfloat ctx a in
      fun it -> sqrt (fa it)
  | Ast.Un (Ast.Abs, a) ->
      let fa = cfloat ctx a in
      fun it -> Float.abs (fa it)
  | Ast.Min es ->
      let fs = List.map (cfloat ctx) es in
      fun it -> List.fold_left (fun m f -> Float.min m (f it)) infinity fs
  | Ast.Max es ->
      let fs = List.map (cfloat ctx) es in
      fun it -> List.fold_left (fun m f -> Float.max m (f it)) neg_infinity fs
  | Ast.Mod (a, b) ->
      let fa = cint_value ctx a and fb = cint_value ctx b in
      fun it -> float_of_int (S.emod (fa it) (fb it))
  | Ast.Pow (a, k) ->
      let fa = cfloat ctx a in
      let k = float_of_int k in
      fun it -> fa it ** k

(* ---- statements ------------------------------------------------------ *)

let compile_stmt env store (info : Prog.stmt_info) =
  let ctx =
    {
      vars = Array.of_list (Prog.loop_vars info);
      params = env.Interp.params;
      store;
    }
  in
  let depth = Array.length ctx.vars in
  let lhs_name, lhs_subs = info.Prog.lhs in
  let set =
    match fused_of ctx lhs_name lhs_subs with
    | Some (view, (c, nz)) -> fused_store view c nz
    | None -> general_store ctx lhs_name lhs_subs
  in
  let rhs = cfloat ctx info.Prog.rhs in
  fun iter ->
    if Array.length iter <> depth then
      failwith "Compile.exec_instance: iteration arity mismatch";
    set iter (rhs iter)

let program (env : Interp.env) store =
  { kernels = Array.map (compile_stmt env store) env.Interp.stmts }

(* ---- lowering seam --------------------------------------------------- *)

(* The bytecode engine lowers the same statements against the same store;
   exporting the slot/param/fused-offset resolution here keeps the two
   engines' address arithmetic identical by construction. *)

type lowctx = ctx

let lowering (env : Interp.env) store (info : Prog.stmt_info) =
  {
    vars = Array.of_list (Prog.loop_vars info);
    params = env.Interp.params;
    store;
  }

let low_depth ctx = Array.length ctx.vars
let low_slot = slot
let low_param ctx name = Option.map float_of_int (param ctx name)

let low_ref ctx name subs =
  match fused_of ctx name subs with
  | Some (view, (c, nz)) -> Some (view.Arrays.v_data, c, nz)
  | None -> None

let kernel t stmt = t.kernels.(stmt)
let exec_instance t (inst : Sched.instance) =
  t.kernels.(inst.Sched.stmt) inst.Sched.iter
