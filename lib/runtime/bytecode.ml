module Ast = Loopir.Ast
module Prog = Loopir.Prog

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Observability: compile-time shape of the programs flowing through the
   engine, under the [runtime.bytecode.*] naming convention. *)
let stmts_counter = Obs.Counter.make "runtime.bytecode.stmts"
let fallbacks_counter = Obs.Counter.make "runtime.bytecode.fallbacks"
let code_words_counter = Obs.Counter.make "runtime.bytecode.code_words"

(* ---- opcodes ---------------------------------------------------------

   A statement compiles to a postfix instruction stream executed start to
   end (no jumps); the last instruction is always a store form, which
   terminates the instance.  Array references are encoded inline as
   [tbl; c; n; m₀; j₀; …; mₙ₋₁; jₙ₋₁]: the cell is
   [tables.(tbl).(c + Σ mₖ·iter.(jₖ))] — the same fused affine offset the
   closure engine computes, via the shared {!Compile} lowering seam. *)

let op_const = 0 (* lit              push lits.(lit) *)
let op_iter = 1 (* j                 push float iter.(j) *)
let op_load = 2 (* ref               push cell *)
let op_bin = 3 (* op                 pop b, a; push a⊕b *)
let op_neg = 4
let op_sqrt = 5
let op_abs = 6
let op_minn = 7 (* n                 fold top n with infinity *)
let op_maxn = 8 (* n                 fold top n with neg_infinity *)
let op_powk = 9 (* lit               x ← x ** lits.(lit) *)
let op_store = 10 (* ref             pop v; cell ← v; end *)
let op_copy = 11 (* src dst          cell(dst) ← cell(src); end *)
let op_llb = 12 (* op a b dst        cell(dst) ← cell(a) ⊕ cell(b); end *)
let op_lcb = 13 (* op a lit dst      cell(dst) ← cell(a) ⊕ lits.(lit); end *)
let op_clb = 14 (* op lit a dst      cell(dst) ← lits.(lit) ⊕ cell(a); end *)
let op_lllb = 15 (* o1 o2 a b c dst  cell(dst) ← cell(a) ⊕₁ (cell(b) ⊕₂ cell(c)); end *)

let bin_add = 0
let bin_sub = 1
let bin_mul = 2
let bin_div = 3

(* ---- compiled program ------------------------------------------------ *)

type t = {
  code : buf;  (** flat instruction stream, all statements concatenated *)
  entry : int array;  (** per-statement entry pc; -1 = closure fallback *)
  depth : int array;  (** per-statement loop depth *)
  lits : float array;  (** float literal pool *)
  tables : float array array;  (** live array backing stores, by table id *)
  max_stack : int;
  fb : (int array -> unit) array;  (** closure kernels (fallback path) *)
  stride : int;  (** work-buffer cells per instance: 1 + max depth *)
}

type scratch = float array

let scratch t = Array.make (max 1 t.max_stack) 0.0
let n_fallbacks t = Array.fold_left (fun a e -> if e < 0 then a + 1 else a) 0 t.entry
let code_words t = Bigarray.Array1.dim t.code
let stride t = t.stride

(* ---- compilation ----------------------------------------------------- *)

exception Fallback
(* raised while lowering a statement the flat encoding cannot express
   bit-for-bit (non-affine or unscanned reference — the general path has
   the [Arrays.get] initial-value fallback — or integer [Mod] semantics);
   the statement keeps its closure kernel instead. *)

(* Structured instruction, peepholed before the final int encoding. *)
type ref_ = { r_tbl : int; r_base : int; r_terms : (int * int) array }

type ins =
  | Const of int
  | Iter of int
  | Load of ref_
  | Bin of int
  | Neg
  | Sqrt
  | Abs
  | Minn of int
  | Maxn of int
  | Powk of int
  | Store of ref_
  | Copy of ref_ * ref_
  | Llb of int * ref_ * ref_ * ref_
  | Lcb of int * ref_ * int * ref_
  | Clb of int * int * ref_ * ref_
  | Lllb of int * int * ref_ * ref_ * ref_ * ref_

type pools = {
  mutable lit_list : float list;  (* reversed *)
  mutable n_lits : int;
  lit_idx : (int64, int) Hashtbl.t;
  mutable tbl_list : float array list;  (* reversed *)
  mutable n_tbls : int;
}

let lit pools v =
  (* Bit-exact interning (covers nan / -0.0 distinctions). *)
  let bits = Int64.bits_of_float v in
  match Hashtbl.find_opt pools.lit_idx bits with
  | Some i -> i
  | None ->
      let i = pools.n_lits in
      pools.lit_list <- v :: pools.lit_list;
      pools.n_lits <- i + 1;
      Hashtbl.add pools.lit_idx bits i;
      i

let table pools data =
  let rec find i = function
    | [] -> None
    | d :: _ when d == data -> Some (pools.n_tbls - 1 - i)
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 pools.tbl_list with
  | Some i -> i
  | None ->
      let i = pools.n_tbls in
      pools.tbl_list <- data :: pools.tbl_list;
      pools.n_tbls <- i + 1;
      i

let ref_of pools (data, c, terms) =
  {
    r_tbl = table pools data;
    r_base = c;
    r_terms = Array.of_list (List.map (fun (j, m) -> (m, j)) terms);
  }

(* Postfix lowering of the RHS; tracks the evaluation-stack height so the
   VM scratch can be sized exactly. *)
type emitter = { mutable ins : ins list; mutable sp : int; mutable max_sp : int }

let push em i delta =
  em.ins <- i :: em.ins;
  em.sp <- em.sp + delta;
  if em.sp > em.max_sp then em.max_sp <- em.sp

let rec lower_rhs pools ctx em e =
  match e with
  | Ast.Int k -> push em (Const (lit pools (float_of_int k))) 1
  | Ast.Real r -> push em (Const (lit pools r)) 1
  | Ast.Var v -> (
      match Compile.low_slot ctx v with
      | Some j -> push em (Iter j) 1
      | None -> (
          match Compile.low_param ctx v with
          | Some f -> push em (Const (lit pools f)) 1
          | None -> raise Fallback))
  | Ast.Ref (a, subs) -> (
      match Compile.low_ref ctx a subs with
      | Some fused -> push em (Load (ref_of pools fused)) 1
      | None -> raise Fallback)
  | Ast.Bin (bop, a, b) ->
      let op =
        match bop with
        | Ast.Add -> bin_add
        | Ast.Sub -> bin_sub
        | Ast.Mul -> bin_mul
        | Ast.Div -> bin_div
      in
      lower_rhs pools ctx em a;
      lower_rhs pools ctx em b;
      push em (Bin op) (-1)
  | Ast.Un (Ast.Neg, a) ->
      lower_rhs pools ctx em a;
      push em Neg 0
  | Ast.Un (Ast.Sqrt, a) ->
      lower_rhs pools ctx em a;
      push em Sqrt 0
  | Ast.Un (Ast.Abs, a) ->
      lower_rhs pools ctx em a;
      push em Abs 0
  | Ast.Min [] -> push em (Const (lit pools infinity)) 1
  | Ast.Max [] -> push em (Const (lit pools neg_infinity)) 1
  | Ast.Min es ->
      List.iter (lower_rhs pools ctx em) es;
      push em (Minn (List.length es)) (1 - List.length es)
  | Ast.Max es ->
      List.iter (lower_rhs pools ctx em) es;
      push em (Maxn (List.length es)) (1 - List.length es)
  | Ast.Mod (_, _) ->
      (* Checked euclidean integer semantics; keep the closure kernel. *)
      raise Fallback
  | Ast.Pow (a, k) ->
      lower_rhs pools ctx em a;
      push em (Powk (lit pools (float_of_int k))) 0

(* Fuse the ubiquitous whole-statement shapes (copy, load⊕load, load⊕const,
   and the multiply-accumulate [d ← a ⊕₁ (b ⊕₂ c)] of matmul/banded updates)
   into one superinstruction: most corpus kernels then execute exactly one
   dispatch per instance. *)
let peephole ins =
  match ins with
  | [ Load s; Store d ] -> [ Copy (s, d) ]
  | [ Load a; Load b; Bin op; Store d ] -> [ Llb (op, a, b, d) ]
  | [ Load a; Const l; Bin op; Store d ] -> [ Lcb (op, a, l, d) ]
  | [ Const l; Load a; Bin op; Store d ] -> [ Clb (op, l, a, d) ]
  | [ Load a; Load b; Load c; Bin op2; Bin op1; Store d ] ->
      [ Lllb (op1, op2, a, b, c, d) ]
  | _ -> ins

let encode_ref r acc =
  let acc = ref acc in
  let put v = acc := v :: !acc in
  put r.r_tbl;
  put r.r_base;
  put (Array.length r.r_terms);
  Array.iter
    (fun (m, j) ->
      put m;
      put j)
    r.r_terms;
  !acc

let encode ins acc =
  let acc = ref acc in
  let put v = acc := v :: !acc in
  let put_ref r = acc := encode_ref r !acc in
  List.iter
    (fun i ->
      match i with
      | Const l -> put op_const; put l
      | Iter j -> put op_iter; put j
      | Load r -> put op_load; put_ref r
      | Bin op -> put op_bin; put op
      | Neg -> put op_neg
      | Sqrt -> put op_sqrt
      | Abs -> put op_abs
      | Minn n -> put op_minn; put n
      | Maxn n -> put op_maxn; put n
      | Powk l -> put op_powk; put l
      | Store r -> put op_store; put_ref r
      | Copy (s, d) -> put op_copy; put_ref s; put_ref d
      | Llb (op, a, b, d) -> put op_llb; put op; put_ref a; put_ref b; put_ref d
      | Lcb (op, a, l, d) -> put op_lcb; put op; put_ref a; put l; put_ref d
      | Clb (op, l, a, d) -> put op_clb; put op; put l; put_ref a; put_ref d
      | Lllb (o1, o2, a, b, c, d) ->
          put op_lllb; put o1; put o2; put_ref a; put_ref b; put_ref c;
          put_ref d)
    ins;
  !acc

let compile (env : Interp.env) store =
  (* The closure program doubles as the fallback path and reproduces the
     compile-time [Failure] semantics (unbound variables) exactly. *)
  let closures = Compile.program env store in
  let n = Array.length env.Interp.stmts in
  let pools =
    {
      lit_list = [];
      n_lits = 0;
      lit_idx = Hashtbl.create 16;
      tbl_list = [];
      n_tbls = 0;
    }
  in
  let entry = Array.make n (-1) in
  let depth = Array.make n 0 in
  let max_stack = ref 0 in
  let code_rev = ref [] in
  let code_len = ref 0 in
  Array.iteri
    (fun s info ->
      let ctx = Compile.lowering env store info in
      depth.(s) <- Compile.low_depth ctx;
      match
        let em = { ins = []; sp = 0; max_sp = 0 } in
        lower_rhs pools ctx em info.Prog.rhs;
        let lhs_name, lhs_subs = info.Prog.lhs in
        (match Compile.low_ref ctx lhs_name lhs_subs with
        | Some fused -> push em (Store (ref_of pools fused)) (-1)
        | None -> raise Fallback);
        (peephole (List.rev em.ins), em.max_sp)
      with
      | ins, stmt_stack ->
          entry.(s) <- !code_len;
          let stmt_code = List.rev (encode ins []) in
          code_rev := List.rev_append stmt_code !code_rev;
          code_len := !code_len + List.length stmt_code;
          if stmt_stack > !max_stack then max_stack := stmt_stack
      | exception Fallback ->
          entry.(s) <- -1;
          Obs.Counter.incr fallbacks_counter)
    env.Interp.stmts;
  let code = Bigarray.Array1.create Bigarray.int Bigarray.c_layout !code_len in
  List.iteri
    (fun i v -> Bigarray.Array1.set code (!code_len - 1 - i) v)
    !code_rev;
  let max_depth = Array.fold_left max 0 depth in
  Obs.Counter.add stmts_counter n;
  Obs.Counter.add code_words_counter !code_len;
  {
    code;
    entry;
    depth;
    lits = Array.of_list (List.rev pools.lit_list);
    tables = Array.of_list (List.rev pools.tbl_list);
    max_stack = !max_stack;
    fb = Array.init n (Compile.kernel closures);
    stride = 1 + max_depth;
  }

(* ---- packed work buffers --------------------------------------------- *)

(* A phase's instances packed into one flat int buffer: cell 0 of each
   [stride]-wide slot is the statement id, cells 1.. are the iteration
   vector (tail cells beyond the statement's depth are never read).  A
   work unit is a task (chain) for [Tasks] phases, the whole instance
   array for [Doall] — chunks address instances as (unit, offset, length)
   so bucket setup never copies instance arrays. *)
type work = {
  wdata : buf;
  wstride : int;
  starts : int array;  (** per-unit first instance slot *)
  lens : int array;  (** per-unit instance count *)
}

let unit_sizes w = w.lens

let pack t (phase : Sched.phase) =
  let stride = t.stride in
  let units =
    match phase with
    | Sched.Doall { instances; _ } -> [| instances |]
    | Sched.Tasks { tasks; _ } -> tasks
  in
  let n_units = Array.length units in
  let starts = Array.make n_units 0 in
  let lens = Array.make n_units 0 in
  let total = ref 0 in
  Array.iteri
    (fun u insts ->
      starts.(u) <- !total;
      lens.(u) <- Array.length insts;
      total := !total + Array.length insts)
    units;
  let wdata = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (!total * stride) in
  let pos = ref 0 in
  Array.iter
    (fun insts ->
      Array.iter
        (fun (inst : Sched.instance) ->
          let d = Array.length inst.Sched.iter in
          if d <> t.depth.(inst.Sched.stmt) then
            failwith "Bytecode.pack: iteration arity mismatch";
          let b = !pos * stride in
          Bigarray.Array1.set wdata b inst.Sched.stmt;
          for j = 0 to d - 1 do
            Bigarray.Array1.set wdata (b + 1 + j) inst.Sched.iter.(j)
          done;
          incr pos)
        insts)
    units;
  { wdata; wstride = stride; starts; lens }

(* ---- the VM ---------------------------------------------------------- *)

let[@inline] geti (code : buf) i = Bigarray.Array1.unsafe_get code i

(* Offset of the reference encoded at [p] for the instance whose iteration
   vector starts at [wk.(ib)].  Safety: the dry scan evaluated every
   affine subscript at both ends of its innermost loop, where it takes
   its extremes, so fused offsets of scheduled instances are in bounds
   (same argument as the closure engine's fused accesses; see
   {!Compile}). *)
let[@inline] roff code (wk : buf) ib p =
  let n = geti code (p + 2) in
  let c = geti code (p + 1) in
  (* Unrolled for the 1-D/2-D references that dominate the corpus: the
     generic fold's loop counter and accumulator cost ~15% per instance on
     already-fused kernels. *)
  if n = 1 then
    c + (geti code (p + 3) * Bigarray.Array1.unsafe_get wk (ib + geti code (p + 4)))
  else if n = 2 then
    c
    + (geti code (p + 3) * Bigarray.Array1.unsafe_get wk (ib + geti code (p + 4)))
    + (geti code (p + 5) * Bigarray.Array1.unsafe_get wk (ib + geti code (p + 6)))
  else begin
    let acc = ref c in
    for k = 0 to n - 1 do
      acc :=
        !acc
        + geti code (p + 3 + (2 * k))
          * Bigarray.Array1.unsafe_get wk (ib + geti code (p + 4 + (2 * k)))
    done;
    !acc
  end

let[@inline] rlen code p = 3 + (2 * geti code (p + 2))

let exec_one t (wk : buf) (stack : float array) entry ib =
  let code = t.code in
  let tables = t.tables in
  let lits = t.lits in
  let pc = ref entry in
  let sp = ref 0 in
  let running = ref true in
  while !running do
    match geti code !pc with
    | 0 (* CONST *) ->
        Array.unsafe_set stack !sp (Array.unsafe_get lits (geti code (!pc + 1)));
        incr sp;
        pc := !pc + 2
    | 1 (* ITER *) ->
        Array.unsafe_set stack !sp
          (float_of_int (Bigarray.Array1.unsafe_get wk (ib + geti code (!pc + 1))));
        incr sp;
        pc := !pc + 2
    | 2 (* LOAD *) ->
        let p = !pc + 1 in
        let data = Array.unsafe_get tables (geti code p) in
        Array.unsafe_set stack !sp (Array.unsafe_get data (roff code wk ib p));
        incr sp;
        pc := p + rlen code p
    | 3 (* BIN *) ->
        let b = Array.unsafe_get stack (!sp - 1) in
        let a = Array.unsafe_get stack (!sp - 2) in
        let v =
          match geti code (!pc + 1) with
          | 0 -> a +. b
          | 1 -> a -. b
          | 2 -> a *. b
          | _ -> a /. b
        in
        Array.unsafe_set stack (!sp - 2) v;
        decr sp;
        pc := !pc + 2
    | 4 (* NEG *) ->
        Array.unsafe_set stack (!sp - 1) (-.Array.unsafe_get stack (!sp - 1));
        incr pc
    | 5 (* SQRT *) ->
        Array.unsafe_set stack (!sp - 1) (sqrt (Array.unsafe_get stack (!sp - 1)));
        incr pc
    | 6 (* ABS *) ->
        Array.unsafe_set stack (!sp - 1)
          (Float.abs (Array.unsafe_get stack (!sp - 1)));
        incr pc
    | 7 (* MINN *) ->
        let n = geti code (!pc + 1) in
        let acc = ref infinity in
        for k = !sp - n to !sp - 1 do
          acc := Float.min !acc (Array.unsafe_get stack k)
        done;
        sp := !sp - n + 1;
        Array.unsafe_set stack (!sp - 1) !acc;
        pc := !pc + 2
    | 8 (* MAXN *) ->
        let n = geti code (!pc + 1) in
        let acc = ref neg_infinity in
        for k = !sp - n to !sp - 1 do
          acc := Float.max !acc (Array.unsafe_get stack k)
        done;
        sp := !sp - n + 1;
        Array.unsafe_set stack (!sp - 1) !acc;
        pc := !pc + 2
    | 9 (* POWK *) ->
        Array.unsafe_set stack (!sp - 1)
          (Array.unsafe_get stack (!sp - 1)
          ** Array.unsafe_get lits (geti code (!pc + 1)));
        pc := !pc + 2
    | 10 (* STORE *) ->
        let p = !pc + 1 in
        let data = Array.unsafe_get tables (geti code p) in
        decr sp;
        Array.unsafe_set data (roff code wk ib p) (Array.unsafe_get stack !sp);
        running := false
    | 11 (* COPY *) ->
        let ps = !pc + 1 in
        let pd = ps + rlen code ps in
        let src = Array.unsafe_get tables (geti code ps) in
        let dst = Array.unsafe_get tables (geti code pd) in
        Array.unsafe_set dst (roff code wk ib pd)
          (Array.unsafe_get src (roff code wk ib ps));
        running := false
    | 12 (* LLB *) ->
        let pa = !pc + 2 in
        let pb = pa + rlen code pa in
        let pd = pb + rlen code pb in
        let x =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pa))
            (roff code wk ib pa)
        in
        let y =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pb))
            (roff code wk ib pb)
        in
        let v =
          match geti code (!pc + 1) with
          | 0 -> x +. y
          | 1 -> x -. y
          | 2 -> x *. y
          | _ -> x /. y
        in
        Array.unsafe_set
          (Array.unsafe_get tables (geti code pd))
          (roff code wk ib pd) v;
        running := false
    | 13 (* LCB *) ->
        let pa = !pc + 2 in
        let pl = pa + rlen code pa in
        let pd = pl + 1 in
        let x =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pa))
            (roff code wk ib pa)
        in
        let y = Array.unsafe_get lits (geti code pl) in
        let v =
          match geti code (!pc + 1) with
          | 0 -> x +. y
          | 1 -> x -. y
          | 2 -> x *. y
          | _ -> x /. y
        in
        Array.unsafe_set
          (Array.unsafe_get tables (geti code pd))
          (roff code wk ib pd) v;
        running := false
    | 14 (* CLB *) ->
        let x = Array.unsafe_get lits (geti code (!pc + 2)) in
        let pa = !pc + 3 in
        let pd = pa + rlen code pa in
        let y =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pa))
            (roff code wk ib pa)
        in
        let v =
          match geti code (!pc + 1) with
          | 0 -> x +. y
          | 1 -> x -. y
          | 2 -> x *. y
          | _ -> x /. y
        in
        Array.unsafe_set
          (Array.unsafe_get tables (geti code pd))
          (roff code wk ib pd) v;
        running := false
    | 15 (* LLLB *) ->
        let pa = !pc + 3 in
        let pb = pa + rlen code pa in
        let pcc = pb + rlen code pb in
        let pd = pcc + rlen code pcc in
        let a =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pa))
            (roff code wk ib pa)
        in
        let b =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pb))
            (roff code wk ib pb)
        in
        let c =
          Array.unsafe_get
            (Array.unsafe_get tables (geti code pcc))
            (roff code wk ib pcc)
        in
        let inner =
          match geti code (!pc + 2) with
          | 0 -> b +. c
          | 1 -> b -. c
          | 2 -> b *. c
          | _ -> b /. c
        in
        let v =
          match geti code (!pc + 1) with
          | 0 -> a +. inner
          | 1 -> a -. inner
          | 2 -> a *. inner
          | _ -> a /. inner
        in
        Array.unsafe_set
          (Array.unsafe_get tables (geti code pd))
          (roff code wk ib pd) v;
        running := false
    | _ -> assert false
  done

let exec_range t scratch w ~unit_ ~off ~len =
  let wk = w.wdata in
  let stride = w.wstride in
  let first = w.starts.(unit_) + off in
  if off < 0 || len < 0 || off + len > w.lens.(unit_) then
    invalid_arg "Bytecode.exec_range: range out of unit bounds";
  for q = first to first + len - 1 do
    let b = q * stride in
    let stmt = Bigarray.Array1.unsafe_get wk b in
    let e = Array.unsafe_get t.entry stmt in
    if e >= 0 then exec_one t wk scratch e (b + 1)
    else begin
      (* Closure fallback: the only per-instance allocation in the engine,
         paid exactly by the statements the flat encoding cannot express. *)
      let d = t.depth.(stmt) in
      let iter = Array.init d (fun j -> Bigarray.Array1.get wk (b + 1 + j)) in
      t.fb.(stmt) iter
    end
  done
