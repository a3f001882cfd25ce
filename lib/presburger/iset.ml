module L = Linexpr
module P = Poly
module D = Numeric.Digest

(* One counter per set operation: the pipeline report diffs these to show
   how much set algebra each strategy burned. *)
let c_union = Obs.Counter.make "iset.union"
let c_inter = Obs.Counter.make "iset.inter"
let c_diff = Obs.Counter.make "iset.diff"
let c_is_empty = Obs.Counter.make "iset.is_empty"
let c_subset = Obs.Counter.make "iset.subset"
let c_equal = Obs.Counter.make "iset.equal"
let c_simplify = Obs.Counter.make "iset.simplify"

type t = { iters : string array; params : string array; polys : Poly.t list }

let make ~iters ~params polys =
  let n = Array.length iters + Array.length params in
  List.iter
    (fun p -> if P.dim p <> n then invalid_arg "Iset.make: dimension mismatch")
    polys;
  { iters; params; polys = List.map P.intern polys }

let universe ~iters ~params =
  make ~iters ~params [ P.universe (Array.length iters + Array.length params) ]

let empty ~iters ~params = make ~iters ~params []
let names s = Array.append s.iters s.params
let dim s = Array.length s.iters + Array.length s.params
let n_iters s = Array.length s.iters
let polys s = s.polys

(* Hash-consed sets share their name arrays across derived values, so the
   physical checks settle the common case in O(1). *)
let names_equal a b = a == b || a = b

let same_space a b =
  a == b || (names_equal a.iters b.iters && names_equal a.params b.params)

let check_space a b =
  if not (same_space a b) then invalid_arg "Iset: space mismatch"

let add_poly s p =
  if P.dim p <> dim s then invalid_arg "Iset.add_poly: dimension mismatch";
  { s with polys = P.intern p :: s.polys }

(* Appending disjunct lists verbatim made repeated unions accumulate
   duplicate polyhedra; content digests make the dedup one table probe per
   disjunct, so s ∪ s = s up to order. *)
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
  Obs.Counter.incr c_union;
  check_space a b;
  if a.polys == b.polys then a
  else { a with polys = dedup_polys (a.polys @ b.polys) }

let inter a b =
  Obs.Counter.incr c_inter;
  check_space a b;
  { a with polys = Dnf.inter a.polys b.polys }

let diff a b =
  Obs.Counter.incr c_diff;
  check_space a b;
  { a with polys = Dnf.diff a.polys b.polys }

let is_empty s =
  Obs.Counter.incr c_is_empty;
  Dnf.is_empty s.polys

let subset a b =
  Obs.Counter.incr c_subset;
  check_space a b;
  a == b || a.polys == b.polys || Dnf.subset a.polys b.polys

let equal a b =
  Obs.Counter.incr c_equal;
  check_space a b;
  a == b || a.polys == b.polys || Dnf.equal a.polys b.polys

let simplify ?aggressive s =
  Obs.Counter.incr c_simplify;
  { s with polys = Dnf.simplify ?aggressive s.polys }

let mem s xs = Dnf.mem s.polys xs

let mem_iter s ~params i =
  if Array.length params <> Array.length s.params then
    invalid_arg "Iset.mem_iter: params";
  mem s (Array.append i params)

let bind_params s values =
  let np = Array.length s.params in
  if Array.length values <> np then invalid_arg "Iset.bind_params";
  let ni = Array.length s.iters in
  let polys =
    List.map
      (fun p ->
        let p = ref p in
        for k = 0 to np - 1 do
          p := P.assign !p (ni + k) values.(k)
        done;
        (* Parameters are now unused; drop the trailing dimensions. *)
        for k = np - 1 downto 0 do
          p := P.drop_dim !p (ni + k)
        done;
        !p)
      s.polys
  in
  { iters = s.iters; params = [||]; polys }

let points s =
  if Array.length s.params <> 0 then
    invalid_arg "Iset.points: parameters must be bound first";
  Bounds.points (n_iters s) s.polys

let digest s =
  let feed_names d ns =
    Array.fold_left
      (fun d n -> D.add_char (D.add_string d n) '\x00')
      (D.add_int d (Array.length ns))
      ns
  in
  List.fold_left
    (fun d p -> D.add_digest d (P.digest p))
    (feed_names (feed_names D.seed s.iters) s.params)
    s.polys

let pp ppf s =
  let nm = names s in
  if s.polys = [] then Format.pp_print_string ppf "{ }"
  else
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,∪ ")
         (fun ppf p -> Format.fprintf ppf "{ %a }" (P.pp nm) p))
      s.polys
