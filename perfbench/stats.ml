(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile moves smoothly with the samples instead of jumping between
   them. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* Geometric mean of positive values: every sample weighs the same in
   ratio terms, whatever its magnitude. *)
let geomean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else exp (Array.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int n)

(* A growable float buffer for per-op samples. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
