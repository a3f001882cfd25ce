module Iset = Presburger.Iset
module Rel = Presburger.Rel

exception Did_not_terminate of int

let peel_symbolic ~phi ~rd ~max_steps =
  let iters = Array.sub (Iset.names phi) 0 (Iset.n_iters phi) in
  let params =
    Array.sub (Iset.names phi) (Iset.n_iters phi)
      (Array.length (Iset.names phi) - Iset.n_iters phi)
  in
  let rebase s = Iset.make ~iters ~params (Iset.polys s) in
  let rec go phi rd acc k =
    if Iset.is_empty phi then List.rev acc
    else if k >= max_steps then raise (Did_not_terminate max_steps)
    else
      let ran = rebase (Rel.ran rd) in
      let p1 = Iset.simplify (Iset.diff phi ran) in
      if Iset.is_empty p1 then
        (* A dependence cycle would mean Rd is not a strict order — cannot
           happen for forward dependences, but guard against it. *)
        raise (Did_not_terminate k)
      else
        let phi' = Iset.simplify (Iset.diff phi p1) in
        let rd' =
          Rel.restrict_dom (Rel.restrict_ran rd phi') phi'
        in
        go phi' rd' (p1 :: acc) (k + 1)
  in
  go phi rd [] 0

type concrete = {
  graph : Depend.Graph.t;
  trace : Depend.Trace.t;
  steps : int;
  fronts : int list array;
}

let peel_concrete prog ~params =
  let tr = Depend.Trace.build prog ~params in
  let g = Depend.Graph.of_trace tr in
  let fronts = Array.make (max g.Depend.Graph.n_levels 0) [] in
  Array.iteri
    (fun node lvl -> fronts.(lvl - 1) <- node :: fronts.(lvl - 1))
    g.Depend.Graph.level;
  Array.iteri (fun k l -> fronts.(k) <- List.rev l) fronts;
  { graph = g; trace = tr; steps = g.Depend.Graph.n_levels; fronts }
