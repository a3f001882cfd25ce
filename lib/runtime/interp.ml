module Ast = Loopir.Ast
module Prog = Loopir.Prog

type env = {
  prog : Ast.program;
  params : (string * int) list;
  stmts : Prog.stmt_info array;
}

let prepare prog ~params =
  Option.iter
    (fun v ->
      invalid_arg
        (Printf.sprintf
           "Interp.prepare: loop index %s reuses an enclosing loop's index" v))
    (Ast.reused_index prog);
  let prog = Loopir.Normalize.unit_strides prog in
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        failwith (Printf.sprintf "Interp: unbound parameter %s" p))
    prog.Ast.params;
  { prog; params; stmts = Array.of_list (Prog.stmts_of prog) }

let param t name =
  match List.assoc_opt name t.params with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Interp: unbound variable %s" name)

let var_env t bindings name =
  match List.assoc_opt name bindings with Some v -> v | None -> param t name

(* Float evaluation of right-hand sides. *)
let rec feval store ienv e =
  match e with
  | Ast.Int k -> float_of_int k
  | Ast.Real r -> r
  | Ast.Var v -> float_of_int (ienv v)
  | Ast.Ref (a, subs) ->
      Arrays.get store a (List.map (Loopir.Eval_int.eval ienv) subs)
  | Ast.Bin (Ast.Add, a, b) -> feval store ienv a +. feval store ienv b
  | Ast.Bin (Ast.Sub, a, b) -> feval store ienv a -. feval store ienv b
  | Ast.Bin (Ast.Mul, a, b) -> feval store ienv a *. feval store ienv b
  | Ast.Bin (Ast.Div, a, b) -> feval store ienv a /. feval store ienv b
  | Ast.Un (Ast.Neg, a) -> -.feval store ienv a
  | Ast.Un (Ast.Sqrt, a) -> sqrt (feval store ienv a)
  | Ast.Un (Ast.Abs, a) -> Float.abs (feval store ienv a)
  | Ast.Min es ->
      List.fold_left (fun m e -> Float.min m (feval store ienv e)) infinity es
  | Ast.Max es ->
      List.fold_left
        (fun m e -> Float.max m (feval store ienv e))
        neg_infinity es
  | Ast.Mod (a, b) ->
      float_of_int
        (Numeric.Safeint.emod (Loopir.Eval_int.eval ienv a)
           (Loopir.Eval_int.eval ienv b))
  | Ast.Pow (a, k) -> feval store ienv a ** float_of_int k

(* Walk the whole program in source order, calling [visit] on each statement
   instance's environment. *)
let iterate t visit =
  let rec run bindings stmt_counter = function
    | Ast.Assign (lhs, rhs) ->
        let id = !stmt_counter in
        incr stmt_counter;
        visit ~stmt:id ~bindings lhs rhs
    | Ast.Loop l ->
        let ienv = var_env t bindings in
        let lo = Loopir.Eval_int.eval ienv l.Ast.lo
        and hi = Loopir.Eval_int.eval ienv l.Ast.hi in
        let saved = !stmt_counter in
        if lo > hi then begin
          (* Still advance the static statement numbering. *)
          let rec count = function
            | Ast.Assign _ -> incr stmt_counter
            | Ast.Loop l -> List.iter count l.Ast.body
          in
          List.iter count l.Ast.body
        end
        else
          for v = lo to hi do
            stmt_counter := saved;
            List.iter
              (run ((l.Ast.index, v) :: bindings) stmt_counter)
              l.Ast.body
          done
    in
  let counter = ref 0 in
  List.iter (run [] counter) t.prog.Ast.body

(* A subscript whose every subexpression is affine: its value, and the
   value of each subexpression, is linear in the innermost loop index.
   [Affine.of_expr] itself may overflow on huge constants; such a
   subscript is treated as non-affine and evaluated at every point. *)
let is_affine e =
  match Loopir.Affine.of_expr e with
  | Some _ -> true
  | None | (exception Numeric.Safeint.Overflow) -> false

(* Note the extents of one statement's references by walking its own
   enclosing loops.  Loop bounds are evaluated at every point of the outer
   loops.  Inside the innermost loop, a reference with all-affine
   subscripts is evaluated only at the two ends, where each subscript
   takes its minimum and maximum; the others at every point.  At each
   evaluated point the references are noted in source order. *)
let scan_stmt t store (info : Prog.stmt_info) =
  let loops = Array.of_list info.Prog.loops in
  let depth = Array.length loops in
  let names = Array.map (fun (l : Prog.loop_ctx) -> l.Prog.index) loops in
  let slots = Array.make depth 0 in
  (* Slots [0 .. !bound-1] are bound; the innermost binding wins. *)
  let bound = ref 0 in
  let env name =
    let rec find k =
      if k < 0 then param t name
      else if String.equal names.(k) name then slots.(k)
      else find (k - 1)
    in
    find (!bound - 1)
  in
  let refs = Prog.refs_of info in
  let general =
    List.filter (fun (_, subs, _) -> not (List.for_all is_affine subs)) refs
  in
  let note (a, subs, _) =
    Arrays.note_bounds store a (List.map (Loopir.Eval_int.eval env) subs)
  in
  let at k v rs =
    slots.(k) <- v;
    List.iter note rs
  in
  let rec walk k =
    bound := k;
    let lo = Loopir.Eval_int.eval env loops.(k).Prog.lo
    and hi = Loopir.Eval_int.eval env loops.(k).Prog.hi in
    if k < depth - 1 then
      for v = lo to hi do
        slots.(k) <- v;
        walk (k + 1)
      done
    else if lo <= hi then begin
      bound := depth;
      at k lo refs;
      if hi > lo then begin
        if general <> [] then
          for v = lo + 1 to hi - 1 do
            at k v general
          done;
        at k hi refs
      end
    end
  in
  if depth = 0 then List.iter note refs else walk 0

let scan_bounds t =
  let store = Arrays.create () in
  Array.iter (scan_stmt t store) t.stmts;
  Arrays.freeze store;
  store

let exec_assign t store bindings (a, subs) rhs =
  let ienv = var_env t bindings in
  let v = feval store ienv rhs in
  Arrays.set store a (List.map (Loopir.Eval_int.eval ienv) subs) v

let run_sequential t =
  let store = scan_bounds t in
  iterate t (fun ~stmt:_ ~bindings lhs rhs ->
      exec_assign t store bindings lhs rhs);
  store

let exec_instance t store (inst : Sched.instance) =
  let info = t.stmts.(inst.Sched.stmt) in
  let vars = Prog.loop_vars info in
  if List.length vars <> Array.length inst.Sched.iter then
    failwith "Interp.exec_instance: iteration arity mismatch";
  let bindings = List.mapi (fun k v -> (v, inst.Sched.iter.(k))) vars in
  exec_assign t store bindings info.Prog.lhs info.Prog.rhs

let run_schedule t (s : Sched.t) =
  let store = scan_bounds t in
  List.iter
    (fun phase ->
      Array.iter (exec_instance t store) (Sched.phase_instances phase))
    s.Sched.phases;
  store

let check_schedule t s =
  let seq = run_sequential t in
  let got = run_schedule t s in
  if Arrays.equal seq got then Ok ()
  else
    Error
      (Printf.sprintf "arrays differ (max abs diff %g)"
         (Arrays.max_abs_diff seq got))
