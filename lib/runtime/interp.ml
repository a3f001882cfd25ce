module Ast = Loopir.Ast
module Prog = Loopir.Prog

type memo = Arrays.image option Atomic.t

type env = {
  prog : Ast.program;
  params : (string * int) list;
  stmts : Prog.stmt_info array;
  memo : memo;
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
  {
    prog;
    params;
    stmts = Array.of_list (Prog.stmts_of prog);
    memo = Atomic.make None;
  }

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

(* A reference compiled for the scan: its array's handle, its
   subscripts, and the index tuples at the low and the high end of the
   innermost loop. *)
type sref = {
  h : Arrays.handle;
  subs : (int array -> int) array;
  affine : bool;
  first : int array;
  last : int array;
}

let eval_into slots r idx =
  for k = 0 to Array.length r.subs - 1 do
    idx.(k) <- r.subs.(k) slots
  done

(* Note the extents of one statement's references by walking its own
   enclosing loops.  Loop bounds are evaluated at every point of the outer
   loops.  Inside the innermost loop, a reference with all-affine
   subscripts is evaluated only at the two ends, where each subscript
   takes its minimum and maximum, and noted as the run between them; the
   others at every point, each point noted as a cell.  At each evaluated
   point the references are evaluated and noted in source order.

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
    let rank = List.length subs in
    {
      h = Arrays.handle store name;
      subs = Array.of_list (List.map (cint ~visible:depth) subs);
      affine = List.for_all is_affine subs;
      first = Array.make rank 0;
      last = Array.make rank 0;
    }
  in
  let all = Array.of_list (List.map sref (Prog.refs_of info)) in
  let general =
    Array.of_list (List.filter (fun r -> not r.affine) (Array.to_list all))
  in
  let slots = Array.make depth 0 in
  (* Each reference at a single point. *)
  let note_points rs =
    Array.iter
      (fun r ->
        eval_into slots r r.first;
        Arrays.note r.h r.first)
      rs
  in
  let rec walk k =
    let lo, hi = bounds.(k) in
    let lo = lo slots and hi = hi slots in
    if k < depth - 1 then
      for v = lo to hi do
        slots.(k) <- v;
        walk (k + 1)
      done
    else if lo = hi then begin
      slots.(k) <- lo;
      note_points all
    end
    else if lo < hi then begin
      slots.(k) <- lo;
      Array.iter
        (fun r ->
          eval_into slots r r.first;
          if r.affine then Arrays.extend r.h r.first
          else Arrays.note r.h r.first)
        all;
      if Array.length general > 0 then
        for v = lo + 1 to hi - 1 do
          slots.(k) <- v;
          note_points general
        done;
      slots.(k) <- hi;
      Array.iter
        (fun r ->
          eval_into slots r r.last;
          if r.affine then Arrays.note_run r.h r.first r.last (hi - lo + 1)
          else Arrays.note r.h r.last)
        all
    end
  in
  if depth = 0 then note_points all else walk 0

let scan t =
  let store = Arrays.create () in
  Array.iter (scan_stmt t store) t.stmts;
  Arrays.freeze store;
  store

(* The first scan of an env records the image of its store; every later
   call copies its store from the image.  Domains that race on a fresh
   env each scan and keep their own store, and the first to finish
   records its image.  A scan that raises records nothing. *)
let scan_bounds t =
  match Atomic.get t.memo with
  | Some image -> Arrays.of_image image
  | None ->
      let store = scan t in
      ignore (Atomic.compare_and_set t.memo None (Some (Arrays.image store)));
      store

(* ---- the reference interpreter --------------------------------------- *)

(* The indices of the enclosing loops, bound by depth in one int array
   from [base]: a name is looked up innermost first, then among the
   parameters.  The lookup closure is made once per run, and a scheduled
   instance binds its scope by pointing [vals] and [base] at its
   coordinates in the phase array. *)
type scope = {
  mutable names : string array;
  mutable vals : int array;
  mutable base : int;
  mutable depth : int;  (** depths [0 .. depth-1] are bound *)
  params : (string * int) list;
}

let lookup sc name =
  let rec find k =
    if k < 0 then param sc.params name
    else if String.equal sc.names.(k) name then sc.vals.(sc.base + k)
    else find (k - 1)
  in
  find (sc.depth - 1)

(* A right-hand side with each array reference resolved to its handle,
   once per run; everything else is evaluated as the AST node it
   mirrors. *)
type fexpr =
  | Num of float  (** [Int] and [Real] *)
  | Var of string
  | Load of Arrays.handle * Ast.expr list
  | Bin of Ast.binop * fexpr * fexpr
  | Un of Ast.unop * fexpr
  | Min of fexpr list
  | Max of fexpr list
  | Mod of Ast.expr * Ast.expr
  | Pow of fexpr * int

type assign = { lhs : Arrays.handle; subs : Ast.expr list; rhs : fexpr }

let rec resolve store = function
  | Ast.Int k -> Num (float_of_int k)
  | Ast.Real r -> Num r
  | Ast.Var v -> Var v
  | Ast.Ref (a, subs) -> Load (Arrays.handle store a, subs)
  | Ast.Bin (op, a, b) -> Bin (op, resolve store a, resolve store b)
  | Ast.Un (op, a) -> Un (op, resolve store a)
  | Ast.Min es -> Min (List.map (resolve store) es)
  | Ast.Max es -> Max (List.map (resolve store) es)
  | Ast.Mod (a, b) -> Mod (a, b)
  | Ast.Pow (a, k) -> Pow (resolve store a, k)

let assign store (a, subs) rhs =
  { lhs = Arrays.handle store a; subs; rhs = resolve store rhs }

(* One run's state.  [scratch.(r)] receives the subscripts of a rank-[r]
   reference: subscripts are integer expressions, so evaluating one
   reference's never starts another's, and no {!Arrays} call retains the
   index. *)
type machine = {
  sc : scope;
  ienv : string -> int;
  scratch : int array array;
}

let machine t =
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
      base = 0;
      depth = 0;
      params = t.params;
    }
  in
  {
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
  | Num x -> x
  | Var v -> float_of_int (m.ienv v)
  | Load (h, subs) -> Arrays.read h (index m subs)
  | Bin (Ast.Add, a, b) -> feval m a +. feval m b
  | Bin (Ast.Sub, a, b) -> feval m a -. feval m b
  | Bin (Ast.Mul, a, b) -> feval m a *. feval m b
  | Bin (Ast.Div, a, b) -> feval m a /. feval m b
  | Un (Ast.Neg, a) -> -.feval m a
  | Un (Ast.Sqrt, a) -> sqrt (feval m a)
  | Un (Ast.Abs, a) -> Float.abs (feval m a)
  | Min es -> List.fold_left (fun x e -> Float.min x (feval m e)) infinity es
  | Max es -> List.fold_left (fun x e -> Float.max x (feval m e)) neg_infinity es
  | Mod (a, b) ->
      float_of_int
        (Numeric.Safeint.emod
           (Loopir.Eval_int.eval m.ienv a)
           (Loopir.Eval_int.eval m.ienv b))
  | Pow (a, k) -> feval m a ** float_of_int k

(* The right-hand side is evaluated before the left-hand subscripts. *)
let exec_assign m a =
  let v = feval m a.rhs in
  Arrays.write a.lhs (index m a.subs) v

(* The program body with its assignments resolved. *)
type stmt = Assign of assign | Loop of Ast.loop * stmt list

let rec resolve_stmt store = function
  | Ast.Assign (lhs, rhs) -> Assign (assign store lhs rhs)
  | Ast.Loop l -> Loop (l, List.map (resolve_stmt store) l.Ast.body)

let run_sequential t =
  let store = scan_bounds t in
  let m = machine t in
  let sc = m.sc in
  let rec run = function
    | Assign a -> exec_assign m a
    | Loop (l, body) ->
        let lo = Loopir.Eval_int.eval m.ienv l.Ast.lo
        and hi = Loopir.Eval_int.eval m.ienv l.Ast.hi in
        let d = sc.depth in
        sc.names.(d) <- l.Ast.index;
        sc.depth <- d + 1;
        for v = lo to hi do
          sc.vals.(d) <- v;
          List.iter run body
        done;
        sc.depth <- d
  in
  List.iter run (List.map (resolve_stmt store) t.prog.Ast.body);
  store

let run_schedule t (s : Sched.t) =
  let store = scan_bounds t in
  let m = machine t in
  let vars =
    Array.map (fun info -> Array.of_list (Prog.loop_vars info)) t.stmts
  in
  let stmts =
    Array.map (fun info -> assign store info.Prog.lhs info.Prog.rhs) t.stmts
  in
  Sched.check_arity s ~depths:(Array.map Array.length vars);
  (* Each instance binds its scope to its coordinates in the phase
     array, in place. *)
  for k = 0 to Sched.n_phases s - 1 do
    let p = Sched.phase s k in
    let data = Sched.data p in
    for i = 0 to Sched.phase_size p - 1 do
      let stmt = Sched.stmt p i in
      let names = vars.(stmt) in
      m.sc.names <- names;
      m.sc.vals <- data;
      m.sc.base <- Sched.coords p i;
      m.sc.depth <- Array.length names;
      exec_assign m stmts.(stmt)
    done
  done;
  store

let check_schedule t s =
  let seq = run_sequential t in
  let got = run_schedule t s in
  if Arrays.equal seq got then Ok ()
  else
    Error
      (Printf.sprintf "arrays differ (max abs diff %g)"
         (Arrays.max_abs_diff seq got))
