let schedule (tr : Depend.Trace.t) =
  (* Group instances by (outermost index, statement), in first-occurrence
     order: the outer loop stays sequential, each statement's inner
     iterations form one DOALL.  Legality against the exact dependence
     graph is checked by Sched.check_legal in the callers/tests. *)
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun id (i : Depend.Trace.instance) ->
      let outer =
        if Array.length i.Depend.Trace.iter > 0 then i.Depend.Trace.iter.(0)
        else 0
      in
      let key = (outer, i.Depend.Trace.stmt) in
      if not (Hashtbl.mem groups key) then begin
        Hashtbl.add groups key [];
        order := key :: !order
      end;
      Hashtbl.replace groups key (id :: Hashtbl.find groups key))
    tr.Depend.Trace.instances;
  Runtime.Sched.of_trace_doalls tr
    (List.rev_map
       (fun ((outer, stmt) as key) ->
         ( Printf.sprintf "outer-%d-s%d" outer stmt,
           List.rev (Hashtbl.find groups key) ))
       !order)
