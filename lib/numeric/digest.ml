(* 128-bit content digests: two independent 64-bit FNV-1a passes with
   distinct offset bases, no external dependency.  This is the digest
   discipline Svc.Key introduced for content-addressed result caching;
   the presburger hash-cons tables reuse it, so both layers agree on
   what "same content" means.

   The two lanes always consume identical byte streams; only the seeds
   differ, which keeps [of_string]/[to_hex] byte-compatible with the
   original Svc.Key implementation (the pinned digest regression test
   in test_svc.ml checks this). *)

type t = { a : int64; b : int64 }

let prime = 0x100000001b3L
let seed = { a = 0xcbf29ce484222325L; b = 0x84222325cbf29ce4L }

(* Each byte steps both lanes.  The [add_*] functions fold their bytes
   over two local int64 accumulators, which the compiler keeps unboxed,
   so a call allocates only its result, whatever its length. *)
let add_char t c =
  let x = Int64.of_int (Char.code c) in
  {
    a = Int64.mul (Int64.logxor t.a x) prime;
    b = Int64.mul (Int64.logxor t.b x) prime;
  }

let add_string t s =
  let a = ref t.a and b = ref t.b in
  for i = 0 to String.length s - 1 do
    let x = Int64.of_int (Char.code (String.unsafe_get s i)) in
    a := Int64.mul (Int64.logxor !a x) prime;
    b := Int64.mul (Int64.logxor !b x) prime
  done;
  { a = !a; b = !b }

(* Feed 8 little-endian bytes, so negative values and values sharing
   low bytes stay distinguishable. *)
let add_int64 t v =
  let a = ref t.a and b = ref t.b in
  for i = 0 to 7 do
    let x = Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL in
    a := Int64.mul (Int64.logxor !a x) prime;
    b := Int64.mul (Int64.logxor !b x) prime
  done;
  { a = !a; b = !b }

let add_int t n = add_int64 t (Int64.of_int n)

(* Mix a sub-digest in by feeding its 16 bytes. *)
let add_digest t d = add_int64 (add_int64 t d.a) d.b
let of_string s = add_string seed s
let to_hex t = Printf.sprintf "%016Lx%016Lx" t.a t.b
let equal x y = Int64.equal x.a y.a && Int64.equal x.b y.b

let compare x y =
  match Int64.compare x.a y.a with 0 -> Int64.compare x.b y.b | c -> c

let hash t = Int64.to_int t.a land max_int
