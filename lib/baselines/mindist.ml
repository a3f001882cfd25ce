module Ivec = Linalg.Ivec

type t = { dim : int; extents : int option array }

let of_distances ~dim distances =
  let extents = Array.make dim None in
  List.iter
    (fun d ->
      if Array.length d <> dim then invalid_arg "Mindist.of_distances";
      Array.iteri
        (fun k c ->
          if c <> 0 then
            let c = abs c in
            match extents.(k) with
            | None -> extents.(k) <- Some c
            | Some e -> if c < e then extents.(k) <- Some c)
        d)
    distances;
  { dim; extents }

let of_simple (a : Depend.Solve.simple) ~params =
  let ds = Depend.Distance.distances a.Depend.Solve.rd ~params in
  of_distances ~dim:(Array.length a.Depend.Solve.iters) ds

let tile_parallelism t =
  Array.fold_left
    (fun acc e ->
      match (acc, e) with
      | Some p, Some e -> Some (p * e)
      | _, None | None, _ -> None)
    (Some 1) t.extents

(* Tile origin of a point: component k floored to a multiple of the extent
   (unbounded dimensions collapse to 0). *)
let tile_of t x =
  Array.init t.dim (fun k ->
      match t.extents.(k) with
      | None -> 0
      | Some e -> Numeric.Safeint.fdiv x.(k) e)

let tiles t points =
  let tiles = Hashtbl.create 256 in
  List.iter
    (fun x ->
      let key = tile_of t x in
      let cur = try Hashtbl.find tiles key with Not_found -> [] in
      Hashtbl.replace tiles key (x :: cur))
    points;
  (* Tiles must execute in lexicographic order of their origin: every
     dependence crosses tiles forward in that order (its first non-zero
     component is at least the tile extent). *)
  Hashtbl.fold (fun key _ acc -> key :: acc) tiles []
  |> List.sort Ivec.compare_lex
  |> List.map (fun key -> (key, List.rev (Hashtbl.find tiles key)))

let schedule t ~stmt points =
  Runtime.Sched.of_stmt_groups ~stmt
    (List.map
       (fun (key, pts) ->
         ( Printf.sprintf "tile%s" (Ivec.to_string key),
           Runtime.Sched.Doall pts ))
       (tiles t points))
