module S = Numeric.Safeint

type t = { n : int; coef : int array; const : int }

let make coef const = { n = Array.length coef; coef = Array.copy coef; const }
let zero n = { n; coef = Array.make n 0; const = 0 }
let const n c = { n; coef = Array.make n 0; const = c }

let var n k =
  if k < 0 || k >= n then invalid_arg "Linexpr.var";
  let coef = Array.make n 0 in
  coef.(k) <- 1;
  { n; coef; const = 0 }

let dim e = e.n
let coeff e k = e.coef.(k)
let constant e = e.const

let check_dim a b =
  if a.n <> b.n then invalid_arg "Linexpr: dimension mismatch"

let add a b =
  check_dim a b;
  { n = a.n; coef = Array.map2 S.add a.coef b.coef; const = S.add a.const b.const }

let neg a = { a with coef = Array.map S.neg a.coef; const = S.neg a.const }
let sub a b = add a (neg b)

let scale k a =
  { a with coef = Array.map (S.mul k) a.coef; const = S.mul k a.const }

let add_const a c = { a with const = S.add a.const c }

(* Hash-consed callers mostly compare physically-shared expressions; the
   pointer check makes that O(1) before the structural fallback. *)
let equal a b =
  a == b || (a.n = b.n && a.const = b.const && a.coef = b.coef)

let feed d e =
  let module D = Numeric.Digest in
  let d = D.add_int d e.n in
  let d = Array.fold_left D.add_int d e.coef in
  D.add_int d e.const

let eval e xs =
  if Array.length xs <> e.n then invalid_arg "Linexpr.eval: dimension";
  let acc = ref e.const in
  for k = 0 to e.n - 1 do
    if e.coef.(k) <> 0 then acc := S.add !acc (S.mul e.coef.(k) xs.(k))
  done;
  !acc

let eval_partial e xs k =
  let acc = ref e.const in
  for j = 0 to e.n - 1 do
    if e.coef.(j) <> 0 then
      if j < k then acc := S.add !acc (S.mul e.coef.(j) xs.(j))
      else invalid_arg "Linexpr.eval_partial: free later variable"
  done;
  !acc

let content e = Array.fold_left S.gcd 0 e.coef
let vars e =
  let acc = ref [] in
  for k = e.n - 1 downto 0 do
    if e.coef.(k) <> 0 then acc := k :: !acc
  done;
  !acc

let uses e k = e.coef.(k) <> 0

let set_coeff e k v =
  let coef = Array.copy e.coef in
  coef.(k) <- v;
  { e with coef }

let subst e k r =
  check_dim e r;
  if r.coef.(k) <> 0 then invalid_arg "Linexpr.subst: replacement uses target";
  let c = e.coef.(k) in
  if c = 0 then e else add (set_coeff e k 0) (scale c r)

let assign e k v =
  let c = e.coef.(k) in
  if c = 0 then e else add_const (set_coeff e k 0) (S.mul c v)

let drop_var e k =
  if e.coef.(k) <> 0 then invalid_arg "Linexpr.drop_var: non-zero coefficient";
  {
    n = e.n - 1;
    coef = Array.init (e.n - 1) (fun j -> if j < k then e.coef.(j) else e.coef.(j + 1));
    const = e.const;
  }

let extend e n' =
  if n' < e.n then invalid_arg "Linexpr.extend: shrinking";
  { n = n'; coef = Array.init n' (fun j -> if j < e.n then e.coef.(j) else 0); const = e.const }

let remap e n' perm =
  if Array.length perm <> e.n then invalid_arg "Linexpr.remap: perm length";
  let coef = Array.make n' 0 in
  Array.iteri
    (fun k c ->
      if c <> 0 then begin
        let k' = perm.(k) in
        if k' < 0 || k' >= n' then invalid_arg "Linexpr.remap: bad target";
        coef.(k') <- S.add coef.(k') c
      end)
    e.coef;
  { n = n'; coef; const = e.const }

let pp names ppf e =
  let first = ref true in
  let term ppf c k =
    let name = if k < Array.length names then names.(k) else Printf.sprintf "x%d" k in
    if !first then begin
      first := false;
      if c = 1 then Format.fprintf ppf "%s" name
      else if c = -1 then Format.fprintf ppf "-%s" name
      else Format.fprintf ppf "%d*%s" c name
    end
    else if c > 0 then
      if c = 1 then Format.fprintf ppf " + %s" name
      else Format.fprintf ppf " + %d*%s" c name
    else if c = -1 then Format.fprintf ppf " - %s" name
    else Format.fprintf ppf " - %d*%s" (-c) name
  in
  Array.iteri (fun k c -> if c <> 0 then term ppf c k) e.coef;
  if !first then Format.fprintf ppf "%d" e.const
  else if e.const > 0 then Format.fprintf ppf " + %d" e.const
  else if e.const < 0 then Format.fprintf ppf " - %d" (-e.const)
