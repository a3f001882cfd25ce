module P = Poly
module L = Linexpr
module D = Numeric.Digest

type t = {
  inn : string array;
  out : string array;
  params : string array;
  polys : Poly.t list;
}

let dim_of inn out params =
  Array.length inn + Array.length out + Array.length params

let make ~inn ~out ~params polys =
  let n = dim_of inn out params in
  List.iter
    (fun p -> if P.dim p <> n then invalid_arg "Rel.make: dimension mismatch")
    polys;
  { inn; out; params; polys = List.map P.intern polys }

let empty ~inn ~out ~params = make ~inn ~out ~params []
let dim r = dim_of r.inn r.out r.params
let names r = Array.concat [ r.inn; r.out; r.params ]
let polys r = r.polys

(* Name arrays are usually shared physically between derived relations, so
   the [==] checks settle the common case before the structural compare. *)
let names_equal a b = a == b || a = b

let check_space a b =
  if
    not
      (a == b
      || (names_equal a.inn b.inn && names_equal a.out b.out
         && names_equal a.params b.params))
  then invalid_arg "Rel: space mismatch"

let feed_names d ns =
  Array.fold_left
    (fun d n -> D.add_char (D.add_string d n) '\x00')
    (D.add_int d (Array.length ns))
    ns

let digest r =
  List.fold_left
    (fun d p -> D.add_digest d (P.digest p))
    (feed_names (feed_names (feed_names D.seed r.inn) r.out) r.params)
    r.polys

(* Same duplicate-disjunct fix as {!Iset.union}: digests make the dedup one
   table probe per disjunct. *)
let dedup_polys polys =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let d = P.digest p in
      if Hashtbl.mem seen d then false
      else begin
        Hashtbl.add seen d ();
        true
      end)
    polys

let union a b =
  check_space a b;
  if a.polys == b.polys then a
  else { a with polys = dedup_polys (a.polys @ b.polys) }

let inter a b =
  check_space a b;
  { a with polys = Dnf.inter a.polys b.polys }

let diff a b =
  check_space a b;
  { a with polys = Dnf.diff a.polys b.polys }

let is_empty r = Dnf.is_empty r.polys

let equal a b =
  check_space a b;
  a == b || a.polys == b.polys || Dnf.equal a.polys b.polys

let simplify ?aggressive r = { r with polys = Dnf.simplify ?aggressive r.polys }

let inverse r =
  let ni = Array.length r.inn and no = Array.length r.out in
  let n = dim r in
  let perm =
    Array.init n (fun k ->
        if k < ni then no + k
        else if k < ni + no then k - ni
        else k)
  in
  {
    inn = r.out;
    out = r.inn;
    params = r.params;
    polys = List.map (fun p -> P.remap p n perm) r.polys;
  }

(* Relation-level memo tables hold the result's disjunct list (already
   interned by the Dnf layer); the cheap name bookkeeping is redone per
   call.  Keys are the relation content digest, which covers the name
   arrays, so two same-shaped relations with different labels do not
   collide. *)
let memo_dom : P.t list Hc.memo = Hc.memo ~name:"rel.dom" ~capacity:4096 ()
let memo_ran : P.t list Hc.memo = Hc.memo ~name:"rel.ran" ~capacity:4096 ()

let memo_compose : P.t list Hc.memo =
  Hc.memo ~name:"rel.compose" ~capacity:4096 ()

let memo_deltas : P.t list Hc.memo =
  Hc.memo ~name:"rel.deltas" ~capacity:4096 ()

let dom r =
  let ni = Array.length r.inn and no = Array.length r.out in
  let outs = List.init no (fun k -> ni + k) in
  let polys =
    Hc.get memo_dom (digest r) (fun () -> Dnf.project_out r.polys outs)
  in
  Iset.make ~iters:r.inn ~params:r.params polys

let ran r =
  let ni = Array.length r.inn in
  let ins = List.init ni (fun k -> k) in
  let polys =
    Hc.get memo_ran (digest r) (fun () -> Dnf.project_out r.polys ins)
  in
  Iset.make ~iters:r.out ~params:r.params polys

(* The change of variables j = i + d is unimodular: a coefficient b of j_k
   adds b to i_k's and becomes d_k's, so the pairs of [r] map one-to-one
   onto the points (i, d) and one exact projection of i leaves the
   differences.  After the shear the dependence equations couple the i_k,
   so the projection picks its elimination order per disjunct. *)
let deltas r =
  let m = Array.length r.inn in
  if Array.length r.out <> m then invalid_arg "Rel.deltas: arity";
  let shear e =
    L.make
      (Array.init (L.dim e) (fun k ->
           if k < m then Numeric.Safeint.add (L.coeff e k) (L.coeff e (m + k))
           else L.coeff e k))
      (L.constant e)
  in
  let ins = List.init m Fun.id in
  let polys =
    Hc.get memo_deltas (digest r) (fun () ->
        List.concat_map
          (fun p -> Omega.project_out_greedy (P.map_exprs shear p) ins)
          r.polys)
  in
  Iset.make ~iters:(Array.map (fun v -> "d" ^ v) r.inn) ~params:r.params polys

let to_set r =
  Iset.make ~iters:(Array.append r.inn r.out) ~params:r.params r.polys

(* Embed a set over [block ⧺ params] into the relation space, with the
   block starting at [off]. *)
let embed_set r ~off s =
  let n = dim r in
  let nb = Iset.n_iters s in
  let np = Array.length r.params in
  if Array.length (Iset.names s) - nb <> np then invalid_arg "Rel: params";
  let perm =
    Array.init (nb + np) (fun k ->
        if k < nb then off + k
        else Array.length r.inn + Array.length r.out + (k - nb))
  in
  List.map (fun p -> P.remap p n perm) (Iset.polys s)

let restrict_dom r s =
  if Iset.n_iters s <> Array.length r.inn then
    invalid_arg "Rel.restrict_dom: arity";
  { r with polys = Dnf.inter r.polys (embed_set r ~off:0 s) }

let restrict_ran r s =
  if Iset.n_iters s <> Array.length r.out then
    invalid_arg "Rel.restrict_ran: arity";
  { r with polys = Dnf.inter r.polys (embed_set r ~off:(Array.length r.inn) s) }

let compose r s =
  if Array.length r.out <> Array.length s.inn then
    invalid_arg "Rel.compose: arity mismatch";
  if r.params <> s.params then invalid_arg "Rel.compose: params mismatch";
  let na = Array.length r.inn
  and nb = Array.length r.out
  and nc = Array.length s.out
  and np = Array.length r.params in
  let n = na + nb + nc + np in
  let perm_r =
    Array.init (na + nb + np) (fun k ->
        if k < na + nb then k else k + nc)
  in
  let perm_s =
    Array.init (nb + nc + np) (fun k -> na + k)
  in
  let polys =
    Hc.get memo_compose (D.add_digest (digest r) (digest s)) @@ fun () ->
    let pr = List.map (fun p -> P.remap p n perm_r) r.polys in
    let ps = List.map (fun p -> P.remap p n perm_s) s.polys in
    let joined = Dnf.inter pr ps in
    let mids = List.init nb (fun k -> na + k) in
    Dnf.project_out joined mids
  in
  { inn = r.inn; out = s.out; params = r.params; polys }

let lex_forward r =
  let ni = Array.length r.inn in
  if ni <> Array.length r.out then invalid_arg "Rel.lex_forward: arity";
  let order = Lex.lt ~n_total:(dim r) ~fst_off:0 ~snd_off:ni ~len:ni in
  { r with polys = Dnf.inter r.polys order }

let symmetric_closure_forward r =
  if Array.length r.inn <> Array.length r.out then
    invalid_arg "Rel.symmetric_closure_forward: arity";
  (* The inverse keeps the original tuple names: both orientations live in
     the same space before the ≺ filter picks the forward arrows. *)
  let inv = { (inverse r) with inn = r.inn; out = r.out } in
  lex_forward (union r inv)

let bind_point r ~params i =
  let ni = Array.length r.inn
  and no = Array.length r.out
  and np = Array.length r.params in
  if Array.length i <> ni then invalid_arg "Rel: point arity";
  if Array.length params <> np then invalid_arg "Rel: params arity";
  List.map
    (fun p ->
      let p = ref p in
      Array.iteri (fun k v -> p := P.assign !p k v) i;
      Array.iteri (fun k v -> p := P.assign !p (ni + no + k) v) params;
      for k = np - 1 downto 0 do
        p := P.drop_dim !p (ni + no + k)
      done;
      for k = ni - 1 downto 0 do
        p := P.drop_dim !p k
      done;
      !p)
    r.polys

let image r ~params i =
  Bounds.points (Array.length r.out) (bind_point r ~params i)

let preimage r ~params j = image (inverse r) ~params j

let mem r ~params i j =
  Dnf.mem r.polys (Array.concat [ i; j; params ])

let pp ppf r =
  let nm = names r in
  if r.polys = [] then Format.pp_print_string ppf "{ }"
  else
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,∪ ")
         (fun ppf p -> Format.fprintf ppf "{ %a }" (P.pp nm) p))
      r.polys
