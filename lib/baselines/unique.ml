module Iset = Presburger.Iset
module Rel = Presburger.Rel
module Lex = Presburger.Lex
module L = Presburger.Linexpr
module C = Presburger.Constr
module P = Presburger.Poly
module Solve = Depend.Solve
module Affine = Loopir.Affine
module Prog = Loopir.Prog

type t = {
  head_flow : Presburger.Iset.t;
  head_rest : Presburger.Iset.t;
  mid : Presburger.Iset.t;
  tail_anti : Presburger.Iset.t;
  tail_rest : Presburger.Iset.t;
}

(* The flow orientation of the coupled pair: write instance i before read
   instance j (i ≺ j with i·A + a = j·B + b). *)
let flow_rel (a : Solve.simple) =
  let stmt = a.Solve.stmt in
  let iters = a.Solve.iters in
  let m = Array.length iters in
  let params = a.Solve.params in
  let np = Array.length params in
  let n = (2 * m) + np in
  match Prog.refs_of stmt with
  | [ (_, subs_w, Prog.Write); (_, subs_r, Prog.Read) ] ->
      let index_of base v =
        let rec find k =
          if k = m then
            let rec findp k =
              if k = np then raise Not_found
              else if params.(k) = v then (2 * m) + k
              else findp (k + 1)
            in
            findp 0
          else if iters.(k) = v then base + k
          else find (k + 1)
        in
        find 0
      in
      let lin base e =
        Depend.Space.linexpr_of_affine ~n ~index_of:(index_of base)
          (Affine.of_expr_exn e)
      in
      let eqs =
        List.map2 (fun ew er -> C.Eq (L.sub (lin 0 ew) (lin m er))) subs_w subs_r
      in
      let dom base =
        List.concat
          (List.mapi
             (fun k ctx ->
               Depend.Space.bound_constraints ~n ~index_of:(index_of base)
                 ~var:(base + k) ctx)
             stmt.Prog.loops)
      in
      let base = P.make n (eqs @ dom 0 @ dom m) in
      let lex = Lex.lt ~n_total:n ~fst_off:0 ~snd_off:m ~len:m in
      let out = Array.map (fun v -> v ^ "'") iters in
      Rel.make ~inn:iters ~out ~params (Presburger.Dnf.inter [ base ] lex)
  | _ -> invalid_arg "Unique: single coupled write/read pair required"

let partition (a : Solve.simple) ~three =
  let flow = flow_rel a in
  let iters = a.Solve.iters in
  let params = a.Solve.params in
  let rebase s = Iset.make ~iters ~params (Iset.polys s) in
  let p1 = three.Core.Threeset.p1
  and p2 = three.Core.Threeset.p2
  and p3 = three.Core.Threeset.p3 in
  let head_flow = Iset.simplify (Iset.inter p1 (rebase (Rel.dom flow))) in
  let head_rest = Iset.simplify (Iset.diff p1 head_flow) in
  (* Anti targets: iterations that are written after being read — P3 points
     reached by a non-flow arrow, i.e. outside ran(flow). *)
  let tail_flow = Iset.simplify (Iset.inter p3 (rebase (Rel.ran flow))) in
  let tail_anti = Iset.simplify (Iset.diff p3 tail_flow) in
  {
    head_flow;
    head_rest;
    mid = p2;
    tail_anti;
    tail_rest = tail_flow;
  }

let schedule t ~stmt ~params =
  let points set = Iset.points (Iset.bind_params set params) in
  let doall label set = (label, Runtime.Sched.Doall (points set)) in
  Runtime.Sched.of_stmt_groups ~stmt
    [
      doall "unique-1-head-flow" t.head_flow;
      doall "unique-2-head-rest" t.head_rest;
      ("unique-3-sequential", Runtime.Sched.Tasks [ points t.mid ]);
      doall "unique-4-tail-anti" t.tail_anti;
      doall "unique-5-tail-rest" t.tail_rest;
    ]

let n_regions t ~params =
  List.length
    (List.filter
       (fun s -> Iset.points (Iset.bind_params s params) <> [])
       [ t.head_flow; t.head_rest; t.mid; t.tail_anti; t.tail_rest ])
