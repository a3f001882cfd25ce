let schedule (tr : Depend.Trace.t) =
  (* Group instances by (outermost index, statement), in first-occurrence
     order: the outer loop stays sequential, each statement's inner
     iterations form one DOALL.  Legality against the exact dependence
     graph is checked by Sched.check_legal in the callers/tests. *)
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun (i : Depend.Trace.instance) ->
      let outer =
        if Array.length i.Depend.Trace.iter > 0 then i.Depend.Trace.iter.(0)
        else 0
      in
      let key = (outer, i.Depend.Trace.stmt) in
      if not (Hashtbl.mem groups key) then begin
        Hashtbl.add groups key [];
        order := key :: !order
      end;
      Hashtbl.replace groups key (i :: Hashtbl.find groups key))
    tr.Depend.Trace.instances;
  let phases =
    List.rev_map
      (fun ((outer, stmt) as key) ->
        Runtime.Sched.Doall
          {
            label = Printf.sprintf "outer-%d-s%d" outer stmt;
            instances =
              Runtime.Sched.instances_of_list
                (fun (i : Depend.Trace.instance) ->
                  {
                    Runtime.Sched.stmt = i.Depend.Trace.stmt;
                    iter = i.Depend.Trace.iter;
                  })
                (List.rev (Hashtbl.find groups key));
          })
      !order
  in
  Runtime.Sched.of_phases phases
