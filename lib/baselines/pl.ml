module Ivec = Linalg.Ivec

type t = Pdm.t

let normalize_direction d =
  let g = Ivec.gcd d in
  if g <= 1 then d else Array.map (fun c -> c / g) d

let of_distances ~dim distances =
  Pdm.of_distances ~dim (List.map normalize_direction distances)

let of_simple (a : Depend.Solve.simple) ~params =
  let ds = Depend.Distance.distances a.Depend.Solve.rd ~params in
  of_distances ~dim:(Array.length a.Depend.Solve.iters) ds

let schedule t ~stmt points =
  Runtime.Sched.of_stmt_groups ~stmt
    [ ("PL-cosets", Runtime.Sched.Tasks (Pdm.cosets t points)) ]
