type t = {
  n : int;
  level : int array;
  n_levels : int;
  level_sizes : int array;
}

let levels ~n edges =
  let level = Array.make n 1 in
  (* Processing edges by increasing destination finalizes every source level
     before it is read (edges satisfy src < dst). *)
  let edges =
    List.sort (fun (_, d1) (_, d2) -> compare d1 d2) edges
  in
  List.iter
    (fun (src, dst) ->
      if src >= dst then invalid_arg "Graph.levels: edge not in execution order";
      if level.(dst) < level.(src) + 1 then level.(dst) <- level.(src) + 1)
    edges;
  let n_levels = Array.fold_left max (if n = 0 then 0 else 1) level in
  let level_sizes = Array.make (max n_levels 0) 0 in
  Array.iter (fun l -> level_sizes.(l - 1) <- level_sizes.(l - 1) + 1) level;
  { n; level; n_levels; level_sizes }

let of_trace (tr : Trace.t) =
  (* Trace edges are already ordered by destination (edges into an instance
     are recorded when it executes), so one pass suffices. *)
  let n = Array.length tr.Trace.instances in
  let level = Array.make n 1 in
  Trace.iter_edges tr (fun src dst ->
      if level.(dst) < level.(src) + 1 then level.(dst) <- level.(src) + 1);
  let n_levels = Array.fold_left max (if n = 0 then 0 else 1) level in
  let level_sizes = Array.make (max n_levels 0) 0 in
  Array.iter (fun l -> level_sizes.(l - 1) <- level_sizes.(l - 1) + 1) level;
  { n; level; n_levels; level_sizes }
