module S = Numeric.Safeint
module L = Linexpr
module C = Constr
module P = Poly

type bound = { num : Linexpr.t; den : int }

type level = {
  lowers : bound list;
  uppers : bound list;
  guards : Constr.t list;
  stride : (int * Linexpr.t) option;
}

type nest = { n_iters : int; levels : level array }

exception Unbounded of int

(* Deepest iteration variable of a constraint (-1 when only parameters). *)
let deepest ~n_iters c =
  let e = C.expr c in
  let m = ref (-1) in
  for k = 0 to n_iters - 1 do
    if L.coeff e k <> 0 then m := k
  done;
  !m

(* Rational-relaxation elimination of iteration variable [k]: equality
   pivots and real-shadow pair combination; Div constraints mentioning the
   variable are dropped (they survive as guards on the exact polyhedron). *)
let eliminate_relaxed cons k =
  let eq_pivot =
    List.find_opt
      (function C.Eq e -> L.coeff e k <> 0 | _ -> false)
      cons
  in
  match eq_pivot with
  | Some (C.Eq f as pivot) ->
      let f = if L.coeff f k < 0 then L.neg f else f in
      let a = L.coeff f k in
      let rhs = L.neg (L.set_coeff f k 0) in
      List.filter_map
        (fun c ->
          if c == pivot then None
          else
            let e = C.expr c in
            let b = L.coeff e k in
            if b = 0 then Some c
            else
              let rest = L.set_coeff e k 0 in
              let e' = L.add (L.scale b rhs) (L.scale a rest) in
              match c with
              | C.Eq _ -> Some (C.Eq e')
              | C.Ge _ -> Some (C.Ge e')
              | C.Div _ -> None)
        cons
  | _ ->
      let lowers, uppers, others =
        List.fold_left
          (fun (lo, up, ot) c ->
            match c with
            | C.Ge e when L.coeff e k > 0 -> ((L.coeff e k, e) :: lo, up, ot)
            | C.Ge e when L.coeff e k < 0 -> (lo, (-L.coeff e k, e) :: up, ot)
            | C.Div (_, e) when L.coeff e k <> 0 -> (lo, up, ot)
            | c -> (lo, up, c :: ot))
          ([], [], []) cons
      in
      let combos =
        List.concat_map
          (fun (a, fl) ->
            List.map
              (fun (b, fu) ->
                let lrest = L.set_coeff fl k 0 and urest = L.set_coeff fu k 0 in
                C.Ge (L.add (L.scale b lrest) (L.scale a urest)))
              uppers)
          lowers
      in
      combos @ List.rev others

let empty_nest ~n_iters n =
  (* A nest whose outermost range 1..0 is empty. *)
  {
    n_iters;
    levels =
      Array.init n_iters (fun _ ->
          {
            lowers = [ { num = L.const n 1; den = 1 } ];
            uppers = [ { num = L.const n 0; den = 1 } ];
            guards = [];
            stride = None;
          });
  }

(* Turn one divisibility guard of a level into a loop stride:
   m | c·v + g with gcd(c, m) = 1  ⟺  v ≡ -c⁻¹·g (mod m). *)
let level_with_stride k lv =
  if lv.stride <> None then lv
  else
    let rec pick seen = function
      | [] -> lv
      | (C.Div (m, e) as g) :: rest when L.coeff e k <> 0 ->
          let c = S.emod (L.coeff e k) m in
          let gcd = S.gcd c m in
          if gcd = 1 then begin
            let _, cinv, _ = S.egcd c m in
            (* r = -c⁻¹·(e without the v term), reduced mod m later. *)
            let g_expr = L.set_coeff e k 0 in
            let r = L.scale (S.emod (-cinv) m) g_expr in
            {
              lv with
              guards = List.rev_append seen rest;
              stride = Some (m, r);
            }
          end
          else pick (g :: seen) rest
      | g :: rest -> pick (g :: seen) rest
    in
    pick [] lv.guards

let with_strides nest =
  { nest with levels = Array.mapi level_with_stride nest.levels }

let rec of_poly ~n_iters p =
  match P.normalize p with
  | None -> empty_nest ~n_iters (P.dim p)
  | Some p -> of_poly_normalized ~n_iters p

and of_poly_normalized ~n_iters p =
  (* Variables beyond n_iters are parameters, always in scope. *)
  (* Guards: every constraint, attached at its deepest variable (ground
     constraints are level-0 guards).  Bound-shaped Ge constraints are
     consumed as bounds instead. *)
  let levels =
    Array.init n_iters (fun _ ->
        { lowers = []; uppers = []; guards = []; stride = None })
  in
  let add_guard k c =
    let k = max k 0 in
    levels.(k) <- { (levels.(k)) with guards = c :: levels.(k).guards }
  in
  (* Projected constraint systems per level: proj.(k) has variables beyond k
     eliminated (rationally). *)
  let proj = Array.make n_iters [] in
  let cur = ref (P.constraints p) in
  for k = n_iters - 1 downto 0 do
    proj.(k) <- !cur;
    cur := eliminate_relaxed !cur k
  done;
  (* Ground leftovers (constraints among parameters only) become level-0
     guards if they are not tautologies. *)
  List.iter
    (fun c ->
      match C.normalize c with
      | C.Tautology -> ()
      | C.Keep c -> add_guard 0 c
      | C.Contradiction -> add_guard 0 c)
    (List.filter (fun c -> deepest ~n_iters c = -1) !cur);
  for k = 0 to n_iters - 1 do
    let lowers = ref [] and uppers = ref [] in
    List.iter
      (fun c ->
        let e = C.expr c in
        let ck = L.coeff e k in
        if ck <> 0 && deepest ~n_iters c = k then
          match c with
          | C.Ge _ when ck > 0 ->
              (* c·x + rest ≥ 0 ⟺ x ≥ ⌈-rest/c⌉ *)
              lowers := { num = L.neg (L.set_coeff e k 0); den = ck } :: !lowers
          | C.Ge _ ->
              uppers := { num = L.set_coeff e k 0; den = -ck } :: !uppers
          | C.Eq _ ->
              (* ck·x = -rest ⟹ x = q with q = (-rest)/ck; bound both sides
                 by ⌈q⌉ and ⌊q⌋ of the same quotient (empty range unless the
                 division is exact). *)
              let num, den =
                if ck > 0 then (L.neg (L.set_coeff e k 0), ck)
                else (L.set_coeff e k 0, -ck)
              in
              lowers := { num; den } :: !lowers;
              uppers := { num; den } :: !uppers
          | C.Div _ -> add_guard k c)
      proj.(k);
    (* Equalities with |coeff| > 1 are exact as a ceiling/floor bound pair
       (the range is empty unless the division is exact), so no extra
       divisibility guard is needed; Div constraints became guards above. *)
    if !lowers = [] || !uppers = [] then raise (Unbounded k);
    levels.(k) <-
      { (levels.(k)) with lowers = List.rev !lowers; uppers = List.rev !uppers }
  done;
  { n_iters; levels }

(* Walks the nest the way its emitted loops run: at each level the max of
   the ceiling lowers to the min of the floor uppers (in steps of the
   stride, from its residue), keeping values whose guards hold.  Bounds,
   strides and guards at level k read only xs.(0..k), so the slots below
   the current level never need resetting. *)
let scan nest =
  let n = nest.n_iters in
  let xs = Array.make n 0 in
  let pts = ref [] in
  let rec go k =
    if k = n then pts := Array.copy xs :: !pts
    else begin
      let lv = nest.levels.(k) in
      let lo =
        List.fold_left
          (fun acc { num; den } -> max acc (S.cdiv (L.eval num xs) den))
          min_int lv.lowers
      in
      let hi =
        List.fold_left
          (fun acc { num; den } -> min acc (S.fdiv (L.eval num xs) den))
          max_int lv.uppers
      in
      let start, step =
        match lv.stride with
        | None -> (lo, 1)
        | Some (m, r) -> (S.add lo (S.emod (S.sub (L.eval r xs) lo) m), m)
      in
      let v = ref start in
      while !v <= hi do
        xs.(k) <- !v;
        if List.for_all (fun g -> C.holds g xs) lv.guards then go (k + 1);
        v := !v + step
      done
    end
  in
  go 0;
  List.rev !pts

(* Merges two increasing, duplicate-free point lists, keeping one copy of
   the points they share: a disjunct's scan is increasing and
   duplicate-free, so a union needs no sort. *)
let merge a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
        let c = Linalg.Ivec.compare_lex x y in
        if c < 0 then go (x :: acc) a' b
        else if c > 0 then go (y :: acc) a b'
        else go (x :: acc) a' b'
  in
  go [] a b

let points n polys =
  List.iter
    (fun p ->
      if P.dim p <> n then
        invalid_arg "Bounds.points: parameters must be bound first")
    polys;
  if n = 0 then
    if List.exists (fun p -> P.normalize p <> None) polys then [ [||] ] else []
  else
    List.fold_left
      (fun pts p -> merge pts (scan (with_strides (of_poly ~n_iters:n p))))
      [] polys
