module C = Constr
module P = Poly
module D = Numeric.Digest

(* ---- memo tables ----------------------------------------------------- *)

(* Operator-level memoization over whole disjunct lists, keyed by the
   order-sensitive fold of the element digests.  Each operator has its own
   table, so keys need no operator tag. *)
let polys_digest ps =
  List.fold_left
    (fun d p -> D.add_digest d (P.digest p))
    (D.add_int D.seed (List.length ps))
    ps

let pair_digest a b = D.add_digest (polys_digest a) (polys_digest b)

let memo_inter : P.t list Hc.memo = Hc.memo ~name:"dnf.inter" ~capacity:4096 ()
let memo_diff : P.t list Hc.memo = Hc.memo ~name:"dnf.diff" ~capacity:4096 ()

let memo_simplify : P.t list Hc.memo =
  Hc.memo ~name:"dnf.simplify" ~capacity:4096 ()

(* ---- operators ------------------------------------------------------- *)

let inter a b =
  Hc.get memo_inter (pair_digest a b) @@ fun () ->
  List.map P.intern
    (List.concat_map (fun pa -> List.map (fun pb -> P.inter pa pb) b) a)

(* a \ b as the disjoint refinement: walking b's constraints c1..cm, emit
   a ∧ c1 ∧ … ∧ c_{i-1} ∧ ¬c_i. *)
let poly_diff a b =
  let pieces = ref [] in
  let prefix = ref a in
  List.iter
    (fun c ->
      List.iter
        (fun nc -> pieces := P.add_constr !prefix nc :: !pieces)
        (C.negate c);
      prefix := P.add_constr !prefix c)
    (P.constraints b);
  List.rev !pieces

let max_diff_disjuncts = 20_000

let filter_nonempty polys = List.filter (fun p -> not (Omega.is_empty p)) polys

let diff a b =
  Hc.get memo_diff (pair_digest a b) @@ fun () ->
  (* Pruning empty pieces at every step keeps the worklist from exploding
     exponentially on high-dimensional unions; a hard cap turns the
     remaining pathological cases into a loud {!Omega.Blowup}. *)
  List.map P.intern
    (List.fold_left
       (fun acc pb ->
         if List.length acc > max_diff_disjuncts then
           raise (Omega.Blowup "difference produced too many disjuncts");
         List.concat_map (fun pa -> poly_diff pa pb) acc
         |> List.filter_map P.normalize
         |> filter_nonempty)
       (filter_nonempty a)
       b)

(* Tests every disjunct, not just up to the first non-empty one, so the
   memo tables and the gated omega call counts see the same calls. *)
let is_empty polys = List.for_all Fun.id (List.map Omega.is_empty polys)
let subset a b = is_empty (diff a b)
let equal a b = subset a b && subset b a

let project_out polys ks =
  List.concat_map (fun p -> Omega.project_out p ks) polys

(* Constraint c is redundant in p when p minus c still implies c. *)
let remove_redundant p =
  let implied rest c =
    List.for_all
      (fun nc -> Omega.is_empty (P.add_constr (P.make (P.dim p) rest) nc))
      (C.negate c)
  in
  let rec go kept = function
    | [] -> List.rev kept
    | c :: rest -> (
        match c with
        | C.Ge _ | C.Div (_, _) ->
            if implied (List.rev_append kept rest) c then go kept rest
            else go (c :: kept) rest
        | C.Eq _ -> go (c :: kept) rest)
  in
  P.with_cons p (go [] (P.constraints p))

let poly_subset_poly a b =
  List.for_all
    (fun c ->
      List.for_all (fun nc -> Omega.is_empty (P.add_constr a nc)) (C.negate c))
    (P.constraints b)

let simplify ?(aggressive = false) polys =
  let key = D.add_char (polys_digest polys) (if aggressive then 'a' else 'p') in
  Hc.get memo_simplify key @@ fun () ->
  let polys =
    List.filter_map
      (fun p ->
        match P.normalize p with
        | Some p when not (Omega.is_empty p) -> P.normalize (remove_redundant p)
        | Some _ | None -> None)
      polys
  in
  (* Drop syntactic duplicates cheaply. *)
  let polys =
    List.fold_left
      (fun acc p ->
        if List.exists (P.equal_syntactic p) acc then acc else p :: acc)
      [] polys
    |> List.rev
  in
  List.map P.intern
    (if not aggressive then polys
     else
       (* Drop disjuncts subsumed by another (kept) disjunct. *)
       let rec go kept = function
         | [] -> List.rev kept
         | p :: rest ->
             if
               List.exists (fun q -> poly_subset_poly p q) rest
               || List.exists (fun q -> poly_subset_poly p q) kept
             then go kept rest
             else go (p :: kept) rest
       in
       go [] polys)

let mem polys xs = List.exists (fun p -> P.mem p xs) polys
