module Hnf = Linalg.Hnf
module Ivec = Linalg.Ivec
module S = Numeric.Safeint

type t = {
  dim : int;
  basis : Hnf.basis;
  parallel_dims : bool array;
}

let of_distances ~dim distances =
  List.iter
    (fun d ->
      if Array.length d <> dim then invalid_arg "Pdm.of_distances: dimension")
    distances;
  let basis = Hnf.of_rows dim distances in
  let parallel_dims = Array.make dim true in
  List.iter
    (fun row ->
      Array.iteri (fun k c -> if c <> 0 then parallel_dims.(k) <- false) row)
    (Hnf.rows basis);
  { dim; basis; parallel_dims }

let of_simple (a : Depend.Solve.simple) ~params =
  let ds = Depend.Distance.distances a.Depend.Solve.rd ~params in
  of_distances ~dim:(Array.length a.Depend.Solve.iters) ds

let covers t d = Hnf.mem t.basis d

(* Canonical coset representative: reduce the point by each echelon row so
   its pivot-column entries land in [0, pivot). *)
let coset_key t x =
  let x = Array.copy x in
  let rows = t.basis.Hnf.mat in
  Array.iteri
    (fun i row ->
      let col = t.basis.Hnf.pivot_cols.(i) in
      let q = S.fdiv x.(col) row.(col) in
      if q <> 0 then
        for k = 0 to t.dim - 1 do
          x.(k) <- S.sub x.(k) (S.mul q row.(k))
        done)
    rows;
  x

let cosets t points =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let key = coset_key t p in
      let cur = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (p :: cur))
    points;
  Hashtbl.fold (fun _ group acc -> List.sort Ivec.compare_lex group :: acc) tbl []
  |> List.sort (fun a b ->
         match (a, b) with
         | x :: _, y :: _ -> Ivec.compare_lex x y
         | _ -> 0)

let schedule t ~stmt points =
  Runtime.Sched.of_stmt_groups ~stmt
    [ ("PDM-cosets", Runtime.Sched.Tasks (cosets t points)) ]

let degree_of_parallelism t points = List.length (cosets t points)
