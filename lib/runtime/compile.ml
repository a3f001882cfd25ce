module Ast = Loopir.Ast
module Prog = Loopir.Prog
module Affine = Loopir.Affine
module S = Numeric.Safeint

(* Compilation of one statement happens in the context of its loop-variable
   slot mapping (outermost first, matching the iteration vectors of
   [Sched]) and the parameter values — both resolved exactly once.  A
   kernel reads coordinate [j] of its instance at [a.(o + j)], for the
   array [a] and offset [o] it is given. *)
type ctx = {
  vars : string array;  (** loop variables, outermost first *)
  params : (string * int) list;
  store : Arrays.t;
  mutable copies : bool;
      (** the statement evaluates some subscript with the general
          evaluator, which reads a vector of its own: its kernel copies
          the coordinates to the scratch first (see [compile_stmt]) *)
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
   constant: value(iter) = a_const + Σⱼ a_coefs.(j)·iter.(j).  A form
   whose coefficients or folded constant overflow is not affine here, as
   in {!Interp}'s scan: the statement gets the general kernel, whose
   checked arithmetic raises only if it ever runs. *)
type aff = { a_const : int; a_coefs : int array }

let affine_of ctx e =
  match Affine.of_expr e with
  | None | (exception S.Overflow) -> None
  | Some { Affine.terms; const } -> (
      let coefs = Array.make (Array.length ctx.vars) 0 in
      let const = ref const in
      match
        List.for_all
          (fun (name, c) ->
            match slot ctx name with
            | Some j ->
                coefs.(j) <- S.add coefs.(j) c;
                true
            | None -> (
                match param ctx name with
                | Some v ->
                    const := S.add !const (S.mul c v);
                    true
                | None -> false))
          terms
      with
      | true -> Some { a_const = !const; a_coefs = coefs }
      | false | (exception S.Overflow) -> None)

(* A name bound neither by a loop nor by a parameter fails when the
   kernel that reads it first runs, as the interpreter fails when it
   evaluates the name: a statement that never runs compiles. *)
let unbound v _ = failwith (Printf.sprintf "Compile: unbound variable %s" v)

(* General (non-affine) integer evaluation: {!Loopir.Eval_int.compile},
   with variable lookups resolved to slots/constants at compile time, over
   a vector of its own.  The statement's kernel copies its coordinates to
   the scratch and runs at offset 0 there, so the closure reads the array
   it is given from 0. *)
let cint ctx e =
  ctx.copies <- true;
  let f =
    Loopir.Eval_int.compile
      ~var:(fun v ->
        match slot ctx v with
        | Some j -> fun it -> it.(j)
        | None -> (
            match param ctx v with Some k -> fun _ -> k | None -> unbound v))
      e
  in
  fun a _ -> f a

(* Integer evaluator with the affine fast path: affine expressions use raw
   machine arithmetic.  The dry scan evaluated each affine subscript with
   checked arithmetic at both ends of its innermost loop; every
   subexpression is linear in that index, so at the points in between it
   lies between its end values and cannot overflow either.  Wrapping
   arithmetic is exact modulo 2^63, so the canonical form [c + Σ m·iter]
   yields that in-range value however its terms are grouped. *)
let cint_value ctx e : int array -> int -> int =
  match affine_of ctx e with
  | Some { a_const; a_coefs } -> (
      let nz = ref [] in
      Array.iteri (fun j c -> if c <> 0 then nz := (j, c) :: !nz) a_coefs;
      match List.rev !nz with
      | [] -> fun _ _ -> a_const
      | [ (j0, c0) ] -> fun a o -> a_const + (c0 * a.(o + j0))
      | [ (j0, c0); (j1, c1) ] ->
          fun a o -> a_const + (c0 * a.(o + j0)) + (c1 * a.(o + j1))
      | pairs ->
          let slots = Array.of_list (List.map fst pairs) in
          let coefs = Array.of_list (List.map snd pairs) in
          let n = Array.length slots in
          fun a o ->
            let acc = ref a_const in
            for j = 0 to n - 1 do
              acc := !acc + (coefs.(j) * a.(o + slots.(j)))
            done;
            !acc)
  | None -> cint ctx e

(* ---- array references ------------------------------------------------ *)

(* A fused reference is data, evaluated inline by the kernels: the cell
   of the instance at coordinates [x0 … x3] is
   [table.(off lsr shift) + (off land mask)] of [slab], for
   [off = c + m0·x0 + m1·x1 + m2·x2 + m3·x3], with the extent's lo
   offsets and the parameter parts of every subscript folded into [c]
   and [mⱼ] the stride-weighted coefficient of coordinate [j].  The scan
   marked the cell of every instance of the statement, so its page is
   present; an offset outside the scanned space meets an absent page's
   negative entry or the table's end, and the access raises. *)
type fused = {
  slab : float array;
  table : int array;
  shift : int;
  mask : int;
  c : int;
  m0 : int;
  m1 : int;
  m2 : int;
  m3 : int;
}

let[@inline] cell r x0 x1 x2 x3 =
  let off = r.c + (r.m0 * x0) + (r.m1 * x1) + (r.m2 * x2) + (r.m3 * x3) in
  r.table.(off lsr r.shift) + (off land r.mask)

(* A constant as a reference to a one-cell slab of its own, so the fused
   shapes read constants and loads alike. *)
let constant v =
  {
    slab = [| v |];
    table = [| 0 |];
    shift = 0;
    mask = 0;
    c = 0;
    m0 = 0;
    m1 = 0;
    m2 = 0;
    m3 = 0;
  }

(* The fused form of an all-affine subscript list against a raw array
   view, when only the first four coordinates have a non-zero
   coefficient. *)
let fuse ctx (view : Arrays.view) affs =
  let ms = Array.make (max 4 (Array.length ctx.vars)) 0 in
  let c = ref 0 in
  List.iteri
    (fun k { a_const; a_coefs } ->
      let stride = view.Arrays.v_strides.(k) in
      c := !c + (stride * (a_const - view.Arrays.v_lo.(k)));
      Array.iteri (fun j m -> ms.(j) <- ms.(j) + (stride * m)) a_coefs)
    affs;
  if Array.exists (( <> ) 0) (Array.sub ms 4 (Array.length ms - 4)) then None
  else
    let shift = view.Arrays.v_shift in
    Some
      {
        slab = view.Arrays.v_slab;
        table = view.Arrays.v_table;
        shift;
        mask = (1 lsl shift) - 1;
        c = !c;
        m0 = ms.(0);
        m1 = ms.(1);
        m2 = ms.(2);
        m3 = ms.(3);
      }

(* Where a kernel reads coordinates 1, 2 and 3 of an instance: their own
   slots, or, past the statement's depth, its last one (whose
   coefficient there is 0), so every read stays inside the instance. *)
let slots ctx =
  let last = max 0 (Array.length ctx.vars - 1) in
  (min 1 last, min 2 last, min 3 last)

(* Non-affine (or unscanned-array) references keep the exact interpreter
   semantics through a handle resolved once.  Their cell is found from
   the subscripts' values on the view's page table without building an
   index tuple: -1 outside the extent or on an absent page, where only
   then a tuple is built, for {!Arrays.read}'s initial value or
   {!Arrays.write}'s error. *)
let general_cell view fs : int array -> int -> int =
  match view with
  | Some v when Array.length v.Arrays.v_lo = Array.length fs ->
      let lo = v.Arrays.v_lo and hi = v.Arrays.v_hi in
      let st = v.Arrays.v_strides and table = v.Arrays.v_table in
      let sh = v.Arrays.v_shift in
      let mask = (1 lsl sh) - 1 in
      fun a o ->
        let off = ref 0 and inside = ref true in
        for k = 0 to Array.length fs - 1 do
          let x = fs.(k) a o in
          if x < lo.(k) || x > hi.(k) then inside := false
          else off := !off + (st.(k) * (x - lo.(k)))
        done;
        if not !inside then -1
        else
          let base = table.(!off lsr sh) in
          if base < 0 then -1 else base + (!off land mask)
  | _ -> fun _ _ -> -1

(* A reference: fused when every subscript is affine, the array has a raw
   view (it was noted during the dry scan) and only the first four
   coordinates enter the offset; general otherwise. *)
type reference =
  | Fused of fused
  | General of {
      slab : float array;
      cell : int array -> int -> int;
      h : Arrays.handle;
      tuple : int array -> int -> int array;
    }

let reference ctx name subs =
  let view = Arrays.view ctx.store name in
  let rec affine acc = function
    | [] -> Some (List.rev acc)
    | s :: rest -> (
        match affine_of ctx s with
        | Some a -> affine (a :: acc) rest
        | None -> None)
  in
  let fused =
    match view with
    | Some v when List.length subs = Array.length v.Arrays.v_lo ->
        Option.bind (affine [] subs) (fuse ctx v)
    | _ -> None
  in
  match fused with
  | Some r -> Fused r
  | None ->
      let fs = Array.of_list (List.map (cint_value ctx) subs) in
      General
        {
          slab = (match view with Some v -> v.Arrays.v_slab | None -> [||]);
          cell = general_cell view fs;
          h = Arrays.handle ctx.store name;
          tuple = (fun a o -> Array.map (fun f -> f a o) fs);
        }

(* ---- float expressions ----------------------------------------------- *)

(* The per-instance kernel of a right-hand side that no fused shape
   covers takes the executing domain's scratch, an int array and the
   offset of its instance's first coordinate there.  No float is
   returned from or passed to a closure: without flambda such a float is
   boxed, ~2 words per instance.  A node of a general tree writes its
   value into its float slot [s] of the scratch and uses the slots above
   [s] for its operands; the domains of a phase share one compiled
   program, so each brings its own scratch. *)
type scratch = { f : float array; iv : int array }
type kernel = scratch -> int array -> int -> unit

(* [tree ctx need e s]: a node writing [e]'s value into scratch slot [s];
   [need] records the slots the program's scratch must hold. *)
let rec tree ctx need e s : kernel =
  if s >= !need then need := s + 1;
  let s1 = s + 1 in
  match e with
  | Ast.Int k ->
      let v = float_of_int k in
      fun sc _ _ -> sc.f.(s) <- v
  | Ast.Real v -> fun sc _ _ -> sc.f.(s) <- v
  | Ast.Var v -> (
      match slot ctx v with
      | Some j -> fun sc a o -> sc.f.(s) <- float_of_int a.(o + j)
      | None -> (
          match param ctx v with
          | Some k ->
              let v = float_of_int k in
              fun sc _ _ -> sc.f.(s) <- v
          | None -> fun sc a _ -> sc.f.(s) <- float_of_int (unbound v a)))
  | Ast.Ref (r, subs) -> (
      match reference ctx r subs with
      | Fused r ->
          let s1, s2, s3 = slots ctx in
          fun sc a o ->
            sc.f.(s) <- r.slab.(cell r a.(o) a.(o + s1) a.(o + s2) a.(o + s3))
      | General { slab; cell; h; tuple } ->
          fun sc a o ->
            let i = cell a o in
            sc.f.(s) <-
              (if i >= 0 then slab.(i) else Arrays.read h (tuple a o)))
  | Ast.Bin (op, x, y) -> (
      let fx = tree ctx need x s and fy = tree ctx need y s1 in
      match op with
      | Ast.Add ->
          fun sc a o ->
            fx sc a o;
            fy sc a o;
            sc.f.(s) <- sc.f.(s) +. sc.f.(s1)
      | Ast.Sub ->
          fun sc a o ->
            fx sc a o;
            fy sc a o;
            sc.f.(s) <- sc.f.(s) -. sc.f.(s1)
      | Ast.Mul ->
          fun sc a o ->
            fx sc a o;
            fy sc a o;
            sc.f.(s) <- sc.f.(s) *. sc.f.(s1)
      | Ast.Div ->
          fun sc a o ->
            fx sc a o;
            fy sc a o;
            sc.f.(s) <- sc.f.(s) /. sc.f.(s1))
  | Ast.Un (op, x) -> (
      let fx = tree ctx need x s in
      match op with
      | Ast.Neg ->
          fun sc a o ->
            fx sc a o;
            sc.f.(s) <- -.sc.f.(s)
      | Ast.Sqrt ->
          fun sc a o ->
            fx sc a o;
            sc.f.(s) <- sqrt sc.f.(s)
      | Ast.Abs ->
          fun sc a o ->
            fx sc a o;
            sc.f.(s) <- Float.abs sc.f.(s))
  | Ast.Min es ->
      let fs = Array.of_list (List.map (fun e -> tree ctx need e s1) es) in
      fun sc a o ->
        sc.f.(s) <- infinity;
        for k = 0 to Array.length fs - 1 do
          fs.(k) sc a o;
          sc.f.(s) <- Float.min sc.f.(s) sc.f.(s1)
        done
  | Ast.Max es ->
      let fs = Array.of_list (List.map (fun e -> tree ctx need e s1) es) in
      fun sc a o ->
        sc.f.(s) <- neg_infinity;
        for k = 0 to Array.length fs - 1 do
          fs.(k) sc a o;
          sc.f.(s) <- Float.max sc.f.(s) sc.f.(s1)
        done
  | Ast.Mod (x, y) ->
      let fx = cint_value ctx x and fy = cint_value ctx y in
      fun sc a o -> sc.f.(s) <- float_of_int (S.emod (fx a o) (fy a o))
  | Ast.Pow (x, k) ->
      let fx = tree ctx need x s in
      let k = float_of_int k in
      fun sc a o ->
        fx sc a o;
        sc.f.(s) <- sc.f.(s) ** k

(* ---- range kernels --------------------------------------------------- *)

(* A statement's range kernel [r sc a o w n] runs [n] consecutive
   instances in order: the first instance's coordinates start at
   [a.(o)], each next one's [w] ints further. *)
type range = scratch -> int array -> int -> int -> int -> unit

type shape = Copy | Constant | Binary | Mac | Tree

(* An operand of the fused shapes: a constant or a fused load. *)
type operand = Const of float | Load of fused

let operand ctx e =
  match e with
  | Ast.Int k -> Some (Const (float_of_int k))
  | Ast.Real v -> Some (Const v)
  | Ast.Var v when slot ctx v = None -> (
      match param ctx v with
      | Some k -> Some (Const (float_of_int k))
      | None -> None)
  | Ast.Ref (r, subs) -> (
      match reference ctx r subs with
      | Fused r -> Some (Load r)
      | General _ -> None)
  | _ -> None

let load = function Load r -> r | Const v -> constant v

(* A reference that reads only the first two coordinates, which a
   two-coordinate loop may find with two terms. *)
let[@inline] cell2 r x0 x1 =
  let off = r.c + (r.m0 * x0) + (r.m1 * x1) in
  r.table.(off lsr r.shift) + (off land r.mask)

let narrow r = r.m2 = 0 && r.m3 = 0

(* The fused shapes: a store of a copy, of a constant, of one binary
   operator over loads and constants, or of a multiply-accumulate
   [x ± y·z], each one loop over the range with every offset evaluated
   inline and each instance's coordinates read once.  The right-hand
   side is read before the left-hand cell is found, as in the
   interpreter, and each operator is the interpreter's own float
   operation: the operator is matched in the loop, a branch that goes
   the same way for every instance.  A copy whose two references read
   only the first two coordinates, the paper's REC examples' statement,
   runs a loop of its own that reads and weighs only those two. *)
let fused_range ctx dst rhs : (shape * range) option =
  let s1, s2, s3 = slots ctx in
  let operands es =
    let ops = List.map (operand ctx) es in
    if List.mem None ops then None else Some (List.filter_map Fun.id ops)
  in
  match rhs with
  | Ast.Bin (((Ast.Add | Ast.Sub) as op), x, Ast.Bin (Ast.Mul, y, z)) -> (
      match operands [ x; y; z ] with
      | Some [ x; y; z ] ->
          let x = load x and y = load y and z = load z in
          Some
            ( Mac,
              fun _ a o w n ->
                let p = ref o in
                for _ = 1 to n do
                  let o = !p in
                  let x0 = a.(o) and x1 = a.(o + s1) in
                  let x2 = a.(o + s2) and x3 = a.(o + s3) in
                  let u = x.slab.(cell x x0 x1 x2 x3) in
                  let yz =
                    y.slab.(cell y x0 x1 x2 x3) *. z.slab.(cell z x0 x1 x2 x3)
                  in
                  let v = match op with Ast.Add -> u +. yz | _ -> u -. yz in
                  dst.slab.(cell dst x0 x1 x2 x3) <- v;
                  p := o + w
                done )
      | _ -> None)
  | Ast.Bin (op, x, y) -> (
      match operands [ x; y ] with
      | Some [ x; y ] ->
          let x = load x and y = load y in
          Some
            ( Binary,
              fun _ a o w n ->
                let p = ref o in
                for _ = 1 to n do
                  let o = !p in
                  let x0 = a.(o) and x1 = a.(o + s1) in
                  let x2 = a.(o + s2) and x3 = a.(o + s3) in
                  let u = x.slab.(cell x x0 x1 x2 x3) in
                  let t = y.slab.(cell y x0 x1 x2 x3) in
                  let v =
                    match op with
                    | Ast.Add -> u +. t
                    | Ast.Sub -> u -. t
                    | Ast.Mul -> u *. t
                    | Ast.Div -> u /. t
                  in
                  dst.slab.(cell dst x0 x1 x2 x3) <- v;
                  p := o + w
                done )
      | _ -> None)
  | _ -> (
      match operand ctx rhs with
      | Some (Load x) when narrow x && narrow dst ->
          Some
            ( Copy,
              fun _ a o w n ->
                let p = ref o in
                for _ = 1 to n do
                  let o = !p in
                  let x0 = a.(o) and x1 = a.(o + s1) in
                  let v = x.slab.(cell2 x x0 x1) in
                  dst.slab.(cell2 dst x0 x1) <- v;
                  p := o + w
                done )
      | Some (Load x) ->
          Some
            ( Copy,
              fun _ a o w n ->
                let p = ref o in
                for _ = 1 to n do
                  let o = !p in
                  let x0 = a.(o) and x1 = a.(o + s1) in
                  let x2 = a.(o + s2) and x3 = a.(o + s3) in
                  let v = x.slab.(cell x x0 x1 x2 x3) in
                  dst.slab.(cell dst x0 x1 x2 x3) <- v;
                  p := o + w
                done )
      | Some (Const v) ->
          Some
            ( Constant,
              fun _ a o w n ->
                let p = ref o in
                for _ = 1 to n do
                  let o = !p in
                  dst.slab.(cell dst a.(o) a.(o + s1) a.(o + s2) a.(o + s3))
                  <- v;
                  p := o + w
                done )
      | None -> None)

(* Any other statement runs its per-instance kernel on each instance of
   the range. *)
let each (k : kernel) : range =
 fun sc a o w n ->
  let p = ref o in
  for _ = 1 to n do
    k sc a !p;
    p := !p + w
  done

type t = {
  ranges : range array;
  shapes : shape array;
  depths : int array;
  slots : int;
}

(* A statement with no enclosing loop has no coordinates: its kernel
   reads the one-cell vector [no_coords] instead, where every
   coefficient it applies is 0. *)
let no_coords = [| 0 |]

(* A statement that evaluates a subscript with the general evaluator
   ([ctx.copies]) first copies its instance's coordinates to the
   scratch's int vector and runs there, at offset 0: {!Loopir.Eval_int}'s
   closures read a vector of their own.  Every other kernel reads the
   array it is given in place. *)
let compile_stmt env store need (info : Prog.stmt_info) : shape * range =
  let ctx =
    {
      vars = Array.of_list (Prog.loop_vars info);
      params = env.Interp.params;
      store;
      copies = false;
    }
  in
  let depth = Array.length ctx.vars in
  let lhs_name, lhs_subs = info.Prog.lhs in
  let rhs = info.Prog.rhs in
  let instance k =
    if not ctx.copies then k
    else fun sc a o ->
      let iv = sc.iv in
      for j = 0 to depth - 1 do
        iv.(j) <- a.(o + j)
      done;
      k sc iv 0
  in
  let shape, r =
    match reference ctx lhs_name lhs_subs with
    | Fused dst -> (
        match fused_range ctx dst rhs with
        | Some sr -> sr
        | None ->
            let f = tree ctx need rhs 0 in
            let s1, s2, s3 = slots ctx in
            ( Tree,
              each
                (instance (fun sc a o ->
                     f sc a o;
                     dst.slab.(cell dst a.(o) a.(o + s1) a.(o + s2) a.(o + s3))
                     <- sc.f.(0))) ))
    | General { slab; cell; h; tuple } ->
        let f = tree ctx need rhs 0 in
        ( Tree,
          each
            (instance (fun sc a o ->
                 f sc a o;
                 let i = cell a o in
                 if i >= 0 then slab.(i) <- sc.f.(0)
                 else Arrays.write h (tuple a o) sc.f.(0))) )
  in
  if depth > 0 then (shape, r)
  else (shape, fun sc _ _ _ n -> r sc no_coords 0 0 n)

let program (env : Interp.env) store =
  let need = ref 0 in
  let compiled = Array.map (compile_stmt env store need) env.Interp.stmts in
  {
    ranges = Array.map snd compiled;
    shapes = Array.map fst compiled;
    depths =
      Array.map (fun info -> List.length (Prog.loop_vars info)) env.Interp.stmts;
    slots = !need;
  }

let depths t = t.depths
let shape t stmt = t.shapes.(stmt)

let scratch t =
  {
    f = Array.make t.slots 0.0;
    iv = Array.make (max 1 (Array.fold_left max 0 t.depths)) 0;
  }

let[@inline] exec_range t sc stmt a o w n = t.ranges.(stmt) sc a o w n
