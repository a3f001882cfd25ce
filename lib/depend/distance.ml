module Rel = Presburger.Rel
module Iset = Presburger.Iset
module Ivec = Linalg.Ivec

type class_ = No_dependence | Uniform | Non_uniform

let distances rd ~params =
  Iset.points (Iset.bind_params (Rel.deltas rd) params)

let classify rd ~phi ~params =
  match distances rd ~params with
  | [] -> No_dependence
  | ds ->
      let phi_pts = Iset.points (Iset.bind_params phi params) in
      let in_phi = Hashtbl.create (List.length phi_pts) in
      List.iter (fun i -> Hashtbl.replace in_phi i ()) phi_pts;
      let uniform =
        List.for_all
          (fun d ->
            List.for_all
              (fun i ->
                let j = Ivec.add i d in
                (not (Hashtbl.mem in_phi j)) || Rel.mem rd ~params i j)
              phi_pts)
          ds
      in
      if uniform then Uniform else Non_uniform

let has_coupled_subscripts (s : Loopir.Prog.stmt_info) =
  let vars = Loopir.Prog.loop_vars s in
  List.exists
    (fun (_, subs, _) ->
      let occurring =
        List.map
          (fun e ->
            match Loopir.Affine.of_expr e with
            | None -> []
            | Some a ->
                List.filter (fun v -> List.mem v vars) (Loopir.Affine.names a))
          subs
      in
      List.exists
        (fun v ->
          List.length (List.filter (fun names -> List.mem v names) occurring)
          >= 2)
        vars)
    (Loopir.Prog.refs_of s)

let class_to_string = function
  | No_dependence -> "none"
  | Uniform -> "uniform"
  | Non_uniform -> "non-uniform"
