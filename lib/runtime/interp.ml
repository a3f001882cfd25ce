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

let unbound name = failwith (Printf.sprintf "Interp: unbound variable %s" name)

(* The first binding of a parameter wins, as with [List.assoc]. *)
let rec param params name =
  match params with
  | [] -> unbound name
  | (p, v) :: rest -> if String.equal p name then v else param rest name

(* ---- the dry scan ------------------------------------------------------ *)

(* A subscript whose every subexpression is affine: its value, and the
   value of each subexpression, is linear in the innermost loop index.
   [Affine.of_expr] itself may overflow on huge constants; such a
   subscript is treated as non-affine and evaluated at every point. *)
let is_affine e =
  match Loopir.Affine.of_expr e with
  | Some _ -> true
  | None | (exception Numeric.Safeint.Overflow) -> false

(* A reference compiled for the scan: its subscripts, and the scratch
   array they are evaluated into. *)
type sref = { name : string; subs : (int array -> int) array; idx : int array }

let note store slots r =
  for k = 0 to Array.length r.subs - 1 do
    r.idx.(k) <- r.subs.(k) slots
  done;
  Arrays.note_index store r.name r.idx

let note_all store slots rs =
  for i = 0 to Array.length rs - 1 do
    note store slots rs.(i)
  done

(* Note the extents of one statement's references by walking its own
   enclosing loops.  Loop bounds are evaluated at every point of the outer
   loops.  Inside the innermost loop, a reference with all-affine
   subscripts is evaluated only at the two ends, where each subscript
   takes its minimum and maximum; the others at every point.  At each
   evaluated point the references are noted in source order.

   Bounds and subscripts are compiled once ({!Loopir.Eval_int.compile})
   over one slot array: loop [k]'s bounds see the slots below [k], the
   subscripts all of them; the innermost binding of a name wins, then the
   first binding of a parameter, folded in as a constant.  A name bound by
   neither raises when it is evaluated, so a loop that never runs never
   fails. *)
let scan_stmt t store (info : Prog.stmt_info) =
  let loops = Array.of_list info.Prog.loops in
  let depth = Array.length loops in
  let names = Array.map (fun (l : Prog.loop_ctx) -> l.Prog.index) loops in
  let cint ~visible =
    Loopir.Eval_int.compile ~var:(fun name ->
        let rec find k =
          if k < 0 then
            match List.assoc_opt name t.params with
            | Some v -> fun _ -> v
            | None -> fun _ -> unbound name
          else if String.equal names.(k) name then fun slots -> slots.(k)
          else find (k - 1)
        in
        find (visible - 1))
  in
  let bounds =
    Array.mapi
      (fun k (l : Prog.loop_ctx) ->
        (cint ~visible:k l.Prog.lo, cint ~visible:k l.Prog.hi))
      loops
  in
  let sref (name, subs, _) =
    {
      name;
      subs = Array.of_list (List.map (cint ~visible:depth) subs);
      idx = Array.make (List.length subs) 0;
    }
  in
  let refs = Prog.refs_of info in
  let all = Array.of_list (List.map sref refs) in
  let general =
    Array.of_list
      (List.filter_map
         (fun ((_, subs, _) as r) ->
           if List.for_all is_affine subs then None else Some (sref r))
         refs)
  in
  let slots = Array.make depth 0 in
  let rec walk k =
    let lo, hi = bounds.(k) in
    let lo = lo slots and hi = hi slots in
    if k < depth - 1 then
      for v = lo to hi do
        slots.(k) <- v;
        walk (k + 1)
      done
    else if lo <= hi then begin
      slots.(k) <- lo;
      note_all store slots all;
      if hi > lo then begin
        if Array.length general > 0 then
          for v = lo + 1 to hi - 1 do
            slots.(k) <- v;
            note_all store slots general
          done;
        slots.(k) <- hi;
        note_all store slots all
      end
    end
  in
  if depth = 0 then note_all store slots all else walk 0

let scan_bounds t =
  let store = Arrays.create () in
  Array.iter (scan_stmt t store) t.stmts;
  Arrays.freeze store;
  store

(* ---- the reference interpreter --------------------------------------- *)

(* The indices of the enclosing loops, bound by depth in one int array:
   a name is looked up innermost first, then among the parameters.  The
   lookup closure is made once per run, and a statement instance binds
   its scope by pointing [vals] at its iteration vector. *)
type scope = {
  mutable names : string array;
  mutable vals : int array;
  mutable depth : int;  (** depths [0 .. depth-1] are bound *)
  params : (string * int) list;
}

let lookup sc name =
  let rec find k =
    if k < 0 then param sc.params name
    else if String.equal sc.names.(k) name then sc.vals.(k)
    else find (k - 1)
  in
  find (sc.depth - 1)

(* One run's state.  [scratch.(r)] receives the subscripts of a rank-[r]
   reference: subscripts are integer expressions, so evaluating one
   reference's never starts another's, and no {!Arrays} call retains the
   index. *)
type machine = {
  store : Arrays.t;
  sc : scope;
  ienv : string -> int;
  scratch : int array array;
}

let machine t store =
  let max_rank =
    Array.fold_left
      (fun m info ->
        List.fold_left
          (fun m (_, subs, _) -> max m (List.length subs))
          m (Prog.refs_of info))
      0 t.stmts
  in
  let depth = Prog.max_depth t.prog in
  let sc =
    {
      names = Array.make depth "";
      vals = Array.make depth 0;
      depth = 0;
      params = t.params;
    }
  in
  {
    store;
    sc;
    ienv = lookup sc;
    scratch = Array.init (max_rank + 1) (fun r -> Array.make r 0);
  }

(* A reference's subscripts, left to right, into its scratch array. *)
let index m subs =
  let idx = m.scratch.(List.length subs) in
  let rec fill k = function
    | [] -> idx
    | e :: rest ->
        idx.(k) <- Loopir.Eval_int.eval m.ienv e;
        fill (k + 1) rest
  in
  fill 0 subs

(* Float evaluation of right-hand sides: a tree walk through
   {!Loopir.Eval_int.eval}, independent of the compiled kernels it
   checks. *)
let rec feval m e =
  match e with
  | Ast.Int k -> float_of_int k
  | Ast.Real r -> r
  | Ast.Var v -> float_of_int (m.ienv v)
  | Ast.Ref (a, subs) -> Arrays.get_index m.store a (index m subs)
  | Ast.Bin (Ast.Add, a, b) -> feval m a +. feval m b
  | Ast.Bin (Ast.Sub, a, b) -> feval m a -. feval m b
  | Ast.Bin (Ast.Mul, a, b) -> feval m a *. feval m b
  | Ast.Bin (Ast.Div, a, b) -> feval m a /. feval m b
  | Ast.Un (Ast.Neg, a) -> -.feval m a
  | Ast.Un (Ast.Sqrt, a) -> sqrt (feval m a)
  | Ast.Un (Ast.Abs, a) -> Float.abs (feval m a)
  | Ast.Min es -> List.fold_left (fun x e -> Float.min x (feval m e)) infinity es
  | Ast.Max es ->
      List.fold_left (fun x e -> Float.max x (feval m e)) neg_infinity es
  | Ast.Mod (a, b) ->
      float_of_int
        (Numeric.Safeint.emod
           (Loopir.Eval_int.eval m.ienv a)
           (Loopir.Eval_int.eval m.ienv b))
  | Ast.Pow (a, k) -> feval m a ** float_of_int k

(* The right-hand side is evaluated before the left-hand subscripts. *)
let exec_assign m (a, subs) rhs =
  let v = feval m rhs in
  Arrays.set_index m.store a (index m subs) v

let run_sequential ?store t =
  let store = match store with Some s -> s | None -> scan_bounds t in
  let m = machine t store in
  let sc = m.sc in
  let rec run = function
    | Ast.Assign (lhs, rhs) -> exec_assign m lhs rhs
    | Ast.Loop l ->
        let lo = Loopir.Eval_int.eval m.ienv l.Ast.lo
        and hi = Loopir.Eval_int.eval m.ienv l.Ast.hi in
        let d = sc.depth in
        sc.names.(d) <- l.Ast.index;
        sc.depth <- d + 1;
        for v = lo to hi do
          sc.vals.(d) <- v;
          List.iter run l.Ast.body
        done;
        sc.depth <- d
  in
  List.iter run t.prog.Ast.body;
  store

(* Executes one instance in a scope bound to its iteration vector;
   [vars.(s)] are statement [s]'s loop indices, outermost first. *)
let exec_in m t vars (inst : Sched.instance) =
  let info = t.stmts.(inst.Sched.stmt) in
  let names = vars.(inst.Sched.stmt) in
  if Array.length names <> Array.length inst.Sched.iter then
    failwith "Interp.exec_instance: iteration arity mismatch";
  m.sc.names <- names;
  m.sc.vals <- inst.Sched.iter;
  m.sc.depth <- Array.length names;
  exec_assign m info.Prog.lhs info.Prog.rhs

let loop_vars t =
  Array.map (fun info -> Array.of_list (Prog.loop_vars info)) t.stmts

let exec_instance t store inst = exec_in (machine t store) t (loop_vars t) inst

let run_schedule t (s : Sched.t) =
  let store = scan_bounds t in
  let m = machine t store and vars = loop_vars t in
  List.iter
    (fun phase -> Array.iter (exec_in m t vars) (Sched.phase_instances phase))
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
