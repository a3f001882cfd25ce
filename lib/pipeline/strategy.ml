let ( let* ) = Result.bind

let analyze_simple prog =
  match Depend.Solve.analyze_simple prog with
  | a -> Ok a
  | exception Invalid_argument m -> Error (Diag.Unsupported m)
  | exception Depend.Space.Unsupported m -> Error (Diag.Unsupported m)
  | exception Presburger.Omega.Blowup m -> Error (Diag.Set_blowup m)
  | exception Numeric.Safeint.Overflow -> Error Diag.Int_overflow

let rec_plan_of prog =
  let* a = analyze_simple prog in
  Core.Partition.lemma1 a

let plan strategy prog =
  match strategy with
  | Plan.Rec ->
      let* rp = rec_plan_of prog in
      Ok (Plan.Rec_chains rp)
  | Plan.Dataflow ->
      let reason =
        if prog.Loopir.Ast.params = [] then "compile-time-known loop bounds"
        else "forced: fronts peeled at bound parameters"
      in
      Ok (Plan.Dataflow_fronts { reason })
  | Plan.Pdm -> (
      match analyze_simple prog with
      | Ok a ->
          Ok
            (Plan.Pdm_fallback
               {
                 simple = Some a;
                 reason = "lattice cover of the distance set";
               })
      | Error (Diag.Unsupported m) ->
          (* No single-statement summary: the exact instance graph stands
             in for the uniformized schedule. *)
          Ok (Plan.Pdm_fallback { simple = None; reason = m })
      | Error e -> Error e)
  | Plan.Unique -> (
      let* rp = rec_plan_of prog in
      match
        Baselines.Unique.partition rp.Core.Partition.simple
          ~three:rp.Core.Partition.three
      with
      | u -> Ok (Plan.Unique_sets { rp; u })
      | exception Invalid_argument m -> Error (Diag.Unsupported m)
      | exception Presburger.Omega.Blowup m -> Error (Diag.Set_blowup m))
  | Plan.Mindist ->
      let* a = analyze_simple prog in
      Ok (Plan.Mindist_tiles { simple = a })
  | Plan.Doacross ->
      Ok
        (Plan.Doacross_model
           { reason = "P/V-synchronized outer iterations (cost model)" })

let selected plan =
  Obs.Event.emit ~scope:"strategy" ~name:"auto.selected" (fun () ->
      [
        ("strategy", Obs.Event.Str (Plan.strategy_name (Plan.strategy plan)));
        ("describe", Obs.Event.Str (Plan.describe plan));
      ]);
  Ok plan

let auto prog =
  match Core.Partition.choose prog with
  | Core.Partition.Rec_chains rp -> selected (Plan.Rec_chains rp)
  | Core.Partition.Dataflow_const ->
      selected (Plan.Dataflow_fronts { reason = "compile-time-known loop bounds" })
  | Core.Partition.Pdm_fallback reason ->
      let simple = Result.to_option (analyze_simple prog) in
      selected (Plan.Pdm_fallback { simple; reason })
