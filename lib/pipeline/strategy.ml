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

module type S = sig
  val strategy : Plan.strategy
  val plan : Loopir.Ast.program -> (Plan.t, Diag.error) result
end

module Rec_chains : S = struct
  let strategy = Plan.Rec

  let plan prog =
    let* rp = rec_plan_of prog in
    Ok (Plan.Rec_chains rp)
end

module Dataflow : S = struct
  let strategy = Plan.Dataflow

  let plan prog =
    let reason =
      if prog.Loopir.Ast.params = [] then "compile-time-known loop bounds"
      else "forced: fronts peeled at bound parameters"
    in
    Ok (Plan.Dataflow_fronts { reason })
end

module Pdm : S = struct
  let strategy = Plan.Pdm

  let plan prog =
    match analyze_simple prog with
    | Ok a ->
        Ok
          (Plan.Pdm_fallback
             { simple = Some a; reason = "lattice cover of the distance set" })
    | Error (Diag.Unsupported m) ->
        (* No single-statement summary: the exact instance graph stands in
           for the uniformized schedule. *)
        Ok (Plan.Pdm_fallback { simple = None; reason = m })
    | Error e -> Error e
end

module Unique : S = struct
  let strategy = Plan.Unique

  let plan prog =
    let* rp = rec_plan_of prog in
    match
      Baselines.Unique.partition rp.Core.Partition.simple
        ~three:rp.Core.Partition.three
    with
    | u -> Ok (Plan.Unique_sets { rp; u })
    | exception Invalid_argument m -> Error (Diag.Unsupported m)
    | exception Presburger.Omega.Blowup m -> Error (Diag.Set_blowup m)
end

module Mindist : S = struct
  let strategy = Plan.Mindist

  let plan prog =
    let* a = analyze_simple prog in
    Ok (Plan.Mindist_tiles { simple = a })
end

module Doacross : S = struct
  let strategy = Plan.Doacross

  let plan _prog =
    Ok
      (Plan.Doacross_model
         { reason = "P/V-synchronized outer iterations (cost model)" })
end

let find = function
  | Plan.Rec -> (module Rec_chains : S)
  | Plan.Dataflow -> (module Dataflow : S)
  | Plan.Pdm -> (module Pdm : S)
  | Plan.Unique -> (module Unique : S)
  | Plan.Mindist -> (module Mindist : S)
  | Plan.Doacross -> (module Doacross : S)

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

(* Cost-model prediction: the strategy layer consults {!Runtime.Sim}
   before execution so every run carries a predicted-vs-actual account
   ({!Report.prediction}) regardless of which scheme planned it. *)
let predict ?(cost = Runtime.Sim.base_seconds) ~threads sched =
  Runtime.Sim.predict cost ~threads sched
