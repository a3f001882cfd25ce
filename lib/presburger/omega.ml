module S = Numeric.Safeint
module L = Linexpr
module C = Constr
module P = Poly

exception Blowup of string

let max_branch_modulus = 512

(* Observability: how much set-algebra work each public entry burns.  The
   counters are process-wide atomics (always on, one fetch-and-add per
   public call); budget accounting makes Set_blowup near-misses visible
   before they become failures. *)
let c_eliminate_calls = Obs.Counter.make "omega.eliminate_calls"
let c_project_calls = Obs.Counter.make "omega.project_out_calls"
let c_is_empty_calls = Obs.Counter.make "omega.is_empty_calls"
let c_blowups = Obs.Counter.make "omega.blowups"
let c_budget_spent = Obs.Counter.make "omega.budget_spent"
let c_near_miss = Obs.Counter.make "omega.budget_near_miss"
let h_budget_used = Obs.Histogram.make "omega.budget_used"

(* Runs [f] with a fresh elimination budget and accounts for the share it
   consumed.  A call that used ≥ 80% of its budget without blowing up is a
   near-miss — the workload is close to the Set_blowup cliff. *)
let with_budget initial f =
  let budget = ref initial in
  let account ~blown =
    let used = initial - !budget in
    Obs.Counter.add c_budget_spent used;
    Obs.Histogram.observe h_budget_used used;
    if blown then Obs.Counter.incr c_blowups
    else if used * 5 >= initial * 4 then Obs.Counter.incr c_near_miss
  in
  match f budget with
  | v ->
      account ~blown:false;
      v
  | exception e ->
      account ~blown:(match e with Blowup _ -> true | _ -> false);
      raise e

let drop_dim = P.drop_dim

(* Rewrite [e] under the change of variable x_k := m·q + r, where q reuses
   index k. *)
let subst_residue e k m r =
  let c = L.coeff e k in
  if c = 0 then e
  else L.add_const (L.set_coeff e k (S.mul m c)) (S.mul c r)

(* Substitute x_k using the equality pivot a·x_k = rhs (a > 0, rhs has no
   x_k) into one constraint. *)
let pivot_constr k a rhs c =
  let e = C.expr c in
  let b = L.coeff e k in
  if b = 0 then c
  else
    let rest = L.set_coeff e k 0 in
    let e' = L.add (L.scale b rhs) (L.scale a rest) in
    match c with
    | C.Eq _ -> C.Eq e'
    | C.Ge _ -> C.Ge e'
    | C.Div (m, _) -> C.Div (S.mul a m, e')

(* Eliminate x_k from [p] using an equality [f = 0] with a non-zero
   coefficient of x_k ([f] itself need not belong to [p]).  Exact; yields a
   single polyhedron of dimension n-1. *)
let pivot_eliminate p k f =
  let f = if L.coeff f k < 0 then L.neg f else f in
  let a = L.coeff f k in
  assert (a > 0);
  let rhs = L.neg (L.set_coeff f k 0) in
  let cons =
    List.filter_map
      (fun c ->
        if C.equal c (C.Eq f) then None else Some (pivot_constr k a rhs c))
      p.P.cons
  in
  let cons = if a > 1 then C.Div (a, rhs) :: cons else cons in
  drop_dim (P.with_cons p cons) k

(* Fourier–Motzkin combination of a lower bound a·x_k ≥ -L (from f_l ≥ 0,
   coeff a > 0) and an upper bound b·x_k ≤ U (from f_u ≥ 0, coeff -b < 0):
   real shadow a·U + b·L ≥ 0, dark shadow subtracts (a-1)(b-1). *)
let fm_combine k ~dark (a, f_l) (b, f_u) =
  let lrest = L.set_coeff f_l k 0 and urest = L.set_coeff f_u k 0 in
  let e = L.add (L.scale b lrest) (L.scale a urest) in
  if dark && a > 1 && b > 1 then L.add_const e (-(S.mul (a - 1) (b - 1)))
  else e

let rec eliminate_b budget p k =
  decr budget;
  if !budget <= 0 then raise (Blowup "elimination budget exhausted");
  match P.normalize p with
  | None -> []
  | Some p ->
      if k < 0 || k >= p.P.n then invalid_arg "Omega.eliminate: bad variable";
      if not (P.uses_var p k) then [ drop_dim p k ]
      else begin
        match
          List.find_opt
            (function C.Div (_, e) -> L.uses e k | _ -> false)
            p.P.cons
        with
        | Some (C.Div (m, _)) ->
            (* Branch on the residue class of x_k modulo m; each branch
               reuses index k for the quotient variable. *)
            if m > max_branch_modulus then
              raise (Blowup (Printf.sprintf "residue branching modulus %d" m));
            List.concat_map
              (fun r ->
                let p_r =
                  P.map_exprs (fun e -> subst_residue e k m r) p
                in
                eliminate_b budget p_r k)
              (List.init m Fun.id)
        | Some _ -> assert false
        | None -> (
            (* Prefer an equality pivot with the smallest coefficient. *)
            let eqs =
              List.filter_map
                (function
                  | C.Eq e when L.uses e k -> Some (S.abs (L.coeff e k), e)
                  | _ -> None)
                p.P.cons
            in
            match List.sort compare eqs with
            | (_, f) :: _ -> [ pivot_eliminate p k f ]
            | [] ->
                let lowers, uppers, others =
                  List.fold_left
                    (fun (lo, up, ot) c ->
                      match c with
                      | C.Ge e when L.coeff e k > 0 ->
                          ((L.coeff e k, e) :: lo, up, ot)
                      | C.Ge e when L.coeff e k < 0 ->
                          (lo, (-L.coeff e k, e) :: up, ot)
                      | c -> (lo, up, c :: ot))
                    ([], [], []) p.P.cons
                in
                if lowers = [] || uppers = [] then
                  (* Unbounded in one direction: the projection drops every
                     constraint involving x_k. *)
                  [ drop_dim (P.with_cons p (List.rev others)) k ]
                else
                  let exact =
                    List.for_all
                      (fun (a, _) ->
                        a = 1 || List.for_all (fun (b, _) -> b = 1) uppers)
                      lowers
                  in
                  let shadow ~dark =
                    let combos =
                      List.concat_map
                        (fun lo ->
                          List.map (fun up -> C.Ge (fm_combine k ~dark lo up)) uppers)
                        lowers
                    in
                    drop_dim (P.with_cons p (combos @ List.rev others)) k
                  in
                  if exact then [ shadow ~dark:false ]
                  else
                    let cmax =
                      List.fold_left (fun m (b, _) -> max m b) 1 uppers
                    in
                    let splinters =
                      List.concat_map
                        (fun (a, f_l) ->
                          let rmax =
                            S.fdiv (S.sub (S.mul cmax a) (S.add cmax a)) cmax
                          in
                          let count = max 0 (rmax + 1) in
                          (* Splinters are bounded like residue branches and
                             paid for from the same budget: coefficients
                             grown by earlier pivots would otherwise emit
                             thousands of polyhedra per lower bound. *)
                          if count > max_branch_modulus then
                            raise
                              (Blowup
                                 (Printf.sprintf "splinter count %d" count));
                          budget := !budget - count;
                          if !budget <= 0 then
                            raise (Blowup "elimination budget exhausted");
                          List.init count (fun i ->
                              pivot_eliminate p k (L.add_const f_l (-i))))
                        lowers
                    in
                    shadow ~dark:true :: splinters)
      end

(* Public entries are memoized on the polyhedron's content digest
   (Blowup propagates without caching, so a failed computation is retried
   rather than remembered); result polyhedra are interned for maximal
   sharing across repeated sub-relations. *)
let memo_eliminate : P.t list Hc.memo =
  Hc.memo ~name:"omega.eliminate" ~capacity:16384 ()

let memo_project : P.t list Hc.memo =
  Hc.memo ~name:"omega.project_out" ~capacity:16384 ()

let memo_is_empty : bool Hc.memo =
  Hc.memo ~name:"omega.is_empty" ~capacity:65536 ()

let eliminate p k =
  Obs.Counter.incr c_eliminate_calls;
  Hc.get memo_eliminate (Numeric.Digest.add_int (P.digest p) k) @@ fun () ->
  List.map P.intern
    (with_budget 100_000 (fun budget -> eliminate_b budget p k))

let project_out p ks =
  Obs.Counter.incr c_project_calls;
  let ks = List.sort_uniq compare ks in
  let key = List.fold_left Numeric.Digest.add_int (P.digest p) ks in
  Hc.get memo_project key @@ fun () ->
  List.map P.intern
    ( with_budget 200_000 @@ fun budget ->
      List.fold_left
        (fun polys k -> List.concat_map (fun p -> eliminate_b budget p k) polys)
        [ p ]
        (List.rev ks) )

(* Cost of eliminating x_k next, lower is cheaper: a unit-coefficient
   equality pivot is exact and adds nothing; a larger pivot adds a
   divisibility constraint; Fourier–Motzkin pays for its bound pairs, more
   when a coefficient is not unit (dark shadow and splinters); residue
   branching on a divisibility constraint costs most. *)
let elimination_cost p k =
  let in_div =
    List.exists (function C.Div (_, e) -> L.uses e k | _ -> false) p.P.cons
  in
  let eq_cost =
    List.filter_map
      (function
        | C.Eq e when L.uses e k -> Some (S.abs (L.coeff e k)) | _ -> None)
      p.P.cons
    |> function
    | [] -> None
    | cs -> Some (List.fold_left min max_int cs)
  in
  match eq_cost with
  | Some 1 -> 0
  | Some c -> 10 + c
  | None ->
      if in_div then 100_000
      else
        let lo = ref 0 and up = ref 0 and unit_only = ref true in
        List.iter
          (function
            | C.Ge e when L.coeff e k > 0 ->
                incr lo;
                if L.coeff e k > 1 then unit_only := false
            | C.Ge e when L.coeff e k < 0 ->
                incr up;
                if L.coeff e k < -1 then unit_only := false
            | _ -> ())
          p.P.cons;
        (!lo * !up) + if !unit_only then 100 else 1000

(* The first variable of [ks] with the lowest cost; a variable no
   constraint uses costs nothing to drop. *)
let cheapest p ks =
  let best =
    List.fold_left
      (fun best k ->
        let cost = if P.uses_var p k then elimination_cost p k else -1 in
        match best with
        | Some (c, _) when c <= cost -> best
        | _ -> Some (cost, k))
      None ks
  in
  snd (Option.get best)

let project_out_greedy p ks =
  Obs.Counter.incr c_project_calls;
  List.map P.intern
    ( with_budget 200_000 @@ fun budget ->
      let rec go p ks =
        if ks = [] then [ p ]
        else
          match P.normalize p with
          | None -> []
          | Some p ->
              let k = cheapest p ks in
              (* Variables above k are renumbered down by the elimination. *)
              let rest =
                List.filter_map
                  (fun j ->
                    if j = k then None else Some (if j > k then j - 1 else j))
                  ks
              in
              List.concat_map (fun q -> go q rest) (eliminate_b budget p k)
      in
      go p (List.sort_uniq compare ks) )

let is_empty p =
  Obs.Counter.incr c_is_empty_calls;
  Hc.get memo_is_empty (P.digest p) @@ fun () ->
  with_budget 500_000 @@ fun budget ->
  let rec go p =
    decr budget;
    if !budget <= 0 then raise (Blowup "emptiness budget exhausted");
    match P.normalize p with
    | None -> true
    | Some p ->
        if p.P.cons = [] then false
        else begin
          (* Pick the cheapest variable to eliminate. *)
          let best = ref None in
          for k = 0 to p.P.n - 1 do
            if P.uses_var p k then begin
              let score = elimination_cost p k in
              match !best with
              | Some (s, _) when s <= score -> ()
              | _ -> best := Some (score, k)
            end
          done;
          match !best with
          | None ->
              (* Constraints exist but use no variable: normalize would have
                 resolved them, so the system is satisfiable. *)
              false
          | Some (_, k) -> List.for_all go (eliminate_b budget p k)
        end
  in
  go p
