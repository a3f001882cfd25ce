type t = { num : int; den : int }

let make n d =
  if d = 0 then raise Division_by_zero;
  if n = 0 then { num = 0; den = 1 }
  else
    let g = Safeint.gcd n d in
    let n = n / g and d = d / g in
    if d < 0 then { num = Safeint.neg n; den = Safeint.neg d }
    else { num = n; den = d }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num q = q.num
let den q = q.den

let add a b =
  make
    (Safeint.add (Safeint.mul a.num b.den) (Safeint.mul b.num a.den))
    (Safeint.mul a.den b.den)

let neg a = { a with num = Safeint.neg a.num }
let sub a b = add a (neg b)
let mul a b = make (Safeint.mul a.num b.num) (Safeint.mul a.den b.den)

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let div a b = mul a (inv b)
let abs a = { a with num = Safeint.abs a.num }

let compare a b =
  Stdlib.compare (Safeint.mul a.num b.den) (Safeint.mul b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let sign a = Safeint.sign a.num
let is_zero a = a.num = 0
let is_integer a = a.den = 1

let to_int_exn a =
  if a.den <> 1 then invalid_arg "Rat.to_int_exn: not an integer";
  a.num

let floor a = Safeint.fdiv a.num a.den
let ceil a = Safeint.cdiv a.num a.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
