type partition_stats = {
  p1 : int option;
  p2 : int option;
  p3 : int option;
  n_chains : int option;
  longest_chain : int option;
  growth : float option;
  theorem_bound : int option;
  n_fronts : int option;
  n_tasks : int option;
}

let empty_stats =
  {
    p1 = None;
    p2 = None;
    p3 = None;
    n_chains = None;
    longest_chain = None;
    growth = None;
    theorem_bound = None;
    n_fronts = None;
    n_tasks = None;
  }

type check_result = Passed | Failed of string | Skipped

type phase_profile = {
  label : string;
  instances : int;
  units : int;
  seconds : float;
  busy_seconds : float;
  alloc_words : float;
}

type phase_prediction = {
  p_label : string;
  predicted_s : float;
  actual_s : float option;
  p_rel_error : float option;
}

type prediction = {
  cost_source : string;
  per_phase : phase_prediction list;
  total_predicted_s : float;
  total_actual_s : float option;
  rel_error : float option;
}

let rel_error ~predicted ~actual =
  if actual > 0.0 && Float.is_finite predicted then
    let e = Float.abs (predicted -. actual) /. actual in
    if Float.is_finite e then Some e else None
  else None

type balance = {
  busy : float array;
  busy_max : float;
  busy_min : float;
  busy_mean : float;
  idle_fraction : float;
  per_phase_idle : (string * float) list;
}

(* Idle time is a fraction by construction; degenerate schedules (zero or
   sub-tick wall time, empty busy arrays, non-finite clock readings) must
   clamp to 0.0 rather than leak nan/inf into reports and the bench
   gate. *)
let idle_frac ~busy_sum ~slots ~wall =
  if not (Float.is_finite wall) || wall <= 0.0 then 0.0
  else
    let f = 1.0 -. (busy_sum /. (float_of_int (max 1 slots) *. wall)) in
    if Float.is_finite f then Float.max 0.0 (Float.min 1.0 f) else 0.0

let balance_of_phases ~threads stats =
  match stats with
  | [] -> None
  | stats ->
      let threads = max 1 threads in
      let slots = Array.make threads 0.0 in
      let total_wall = ref 0.0 in
      let per_phase_idle =
        List.map
          (fun (label, busy, seconds) ->
            Array.iteri
              (fun k b ->
                let k = min k (threads - 1) in
                slots.(k) <- slots.(k) +. b)
              busy;
            if Float.is_finite seconds && seconds > 0.0 then
              total_wall := !total_wall +. seconds;
            let sum = Array.fold_left ( +. ) 0.0 busy in
            ( label,
              idle_frac ~busy_sum:sum ~slots:(Array.length busy)
                ~wall:seconds ))
          stats
      in
      let busy_max = Array.fold_left max slots.(0) slots in
      let busy_min = Array.fold_left min slots.(0) slots in
      let busy_sum = Array.fold_left ( +. ) 0.0 slots in
      let busy_mean = busy_sum /. float_of_int threads in
      let idle_fraction =
        idle_frac ~busy_sum ~slots:threads ~wall:!total_wall
      in
      Some
        {
          busy = slots;
          busy_max;
          busy_min;
          busy_mean;
          idle_fraction;
          per_phase_idle;
        }

type t = {
  program : string;
  params : (string * int) list;
  strategy : string;
  reason : string option;
  timings : (string * float) list;
  n_instances : int option;
  n_phases : int option;
  stats : partition_stats option;
  threads : int;
  legality : check_result;
  semantics : check_result;
  seq_seconds : float option;
  par_seconds : float option;
  model_makespan : float option;
  thread_loads : int array option;
  phases : phase_profile list;
  balance : balance option;
  prediction : prediction option;
  gc : (string * Obs.Gcstats.t) list;
  metrics : Obs.Metrics.t option;
}

let check_result_string = function
  | Passed -> "ok"
  | Failed m -> "FAILED: " ^ m
  | Skipped -> "skipped"

(* ---- text ------------------------------------------------------------ *)

let to_text r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "program  : %s%s" r.program
    (match r.params with
    | [] -> ""
    | ps ->
        "  ["
        ^ String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ps)
        ^ "]");
  line "strategy : %s%s" r.strategy
    (match r.reason with None -> "" | Some why -> "  (" ^ why ^ ")");
  (match (r.n_phases, r.n_instances) with
  | Some np, Some ni -> line "schedule : %d phases, %d instances" np ni
  | _ -> ());
  (match r.stats with
  | None -> ()
  | Some s ->
      let parts =
        List.filter_map Fun.id
          [
            Option.map (Printf.sprintf "|P1| = %d") s.p1;
            Option.map (Printf.sprintf "|P2| = %d") s.p2;
            Option.map (Printf.sprintf "|P3| = %d") s.p3;
            Option.map (Printf.sprintf "chains = %d") s.n_chains;
            Option.map (Printf.sprintf "longest = %d") s.longest_chain;
            Option.map (Printf.sprintf "fronts = %d") s.n_fronts;
            Option.map (Printf.sprintf "tasks = %d") s.n_tasks;
          ]
      in
      if parts <> [] then line "partition: %s" (String.concat ", " parts);
      match (s.growth, s.theorem_bound) with
      | Some g, Some b -> line "theorem 1: growth %g, chain bound %d" g b
      | Some g, None -> line "theorem 1: growth %g (unbounded)" g
      | _ -> ());
  line "stages   :%s"
    (String.concat ""
       (List.map
          (fun (name, sec) -> Printf.sprintf "  %s %.4fs" name sec)
          r.timings));
  line "legality : %s" (check_result_string r.legality);
  line "semantics: %s" (check_result_string r.semantics);
  (match (r.par_seconds, r.seq_seconds) with
  | Some par, Some seq ->
      line "wall time: %.4fs on %d thread(s) (sequential interp: %.4fs)" par
        r.threads seq
  | Some par, None -> line "wall time: %.4fs on %d thread(s)" par r.threads
  | None, Some seq -> line "wall time: sequential interp %.4fs" seq
  | None, None -> ());
  (match r.model_makespan with
  | Some m -> line "model    : DOACROSS makespan %.1f (unit work per instance)" m
  | None -> ());
  (match r.thread_loads with
  | Some loads ->
      line "loads    : %s"
        (String.concat " "
           (Array.to_list (Array.map string_of_int loads)))
  | None -> ());
  List.iter
    (fun p ->
      line "  phase %-12s %7d inst %5d unit(s) %.4fs  %.0f alloc words"
        p.label p.instances p.units p.seconds p.alloc_words)
    r.phases;
  (match r.balance with
  | None -> ()
  | Some b ->
      line "domains  : busy max %.4fs / min %.4fs / mean %.4fs, idle %.1f%%"
        b.busy_max b.busy_min b.busy_mean (100.0 *. b.idle_fraction);
      List.iter
        (fun (label, idle) ->
          line "  barrier %-10s idle %.1f%%" label (100.0 *. idle))
        b.per_phase_idle);
  (match r.prediction with
  | None -> ()
  | Some p ->
      line "predict  : %.4fs total (%s cost model)%s" p.total_predicted_s
        p.cost_source
        (match (p.total_actual_s, p.rel_error) with
        | Some a, Some e ->
            Printf.sprintf " vs %.4fs measured, rel error %.0f%%" a
              (100.0 *. e)
        | Some a, None -> Printf.sprintf " vs %.4fs measured" a
        | None, _ -> "");
      List.iter
        (fun pp ->
          line "  phase %-12s predicted %.4fs%s" pp.p_label pp.predicted_s
            (match (pp.actual_s, pp.p_rel_error) with
            | Some a, Some e ->
                Printf.sprintf "  actual %.4fs  rel error %.0f%%" a
                  (100.0 *. e)
            | Some a, None -> Printf.sprintf "  actual %.4fs" a
            | None, _ -> ""))
        p.per_phase);
  (match List.filter (fun (_, g) -> not (Obs.Gcstats.is_zero g)) r.gc with
  | [] -> ()
  | gcs ->
      line "gc       :";
      List.iter
        (fun (stage, g) ->
          line "  %-12s %12.0f words alloc  %4d minor / %d major gc%s" stage
            (Obs.Gcstats.allocated_words g)
            g.Obs.Gcstats.minor_collections g.Obs.Gcstats.major_collections
            (if g.Obs.Gcstats.compactions > 0 then
               Printf.sprintf "  %d compaction(s)" g.Obs.Gcstats.compactions
             else ""))
        gcs);
  (match r.metrics with
  | None -> ()
  | Some m ->
      if not (Obs.Metrics.is_empty m) then begin
        line "metrics  :";
        List.iter
          (fun (name, v) -> line "  %-32s %d" name v)
          m.Obs.Metrics.counters;
        List.iter
          (fun (name, h) ->
            line "  %-32s count %d, sum %d, p50 %.0f, p99 %.0f" name
              h.Obs.Histogram.count h.Obs.Histogram.sum
              (Obs.Histogram.percentile h 0.5)
              (Obs.Histogram.percentile h 0.99))
          m.Obs.Metrics.histograms
      end);
  Buffer.contents buf

(* ---- json ------------------------------------------------------------ *)

let opt f = function None -> [] | Some v -> [ f v ]

let stats_json s =
  let field name conv v = opt (fun x -> (name, conv x)) v in
  Json.Obj
    (List.concat
       [
         field "p1" (fun n -> Json.Int n) s.p1;
         field "p2" (fun n -> Json.Int n) s.p2;
         field "p3" (fun n -> Json.Int n) s.p3;
         field "chains" (fun n -> Json.Int n) s.n_chains;
         field "longest_chain" (fun n -> Json.Int n) s.longest_chain;
         field "growth" (fun g -> Json.Float g) s.growth;
         field "theorem_bound" (fun n -> Json.Int n) s.theorem_bound;
         field "fronts" (fun n -> Json.Int n) s.n_fronts;
         field "tasks" (fun n -> Json.Int n) s.n_tasks;
       ])

let check_json = function
  | Passed -> Json.Str "ok"
  | Failed m -> Json.Obj [ ("failed", Json.Str m) ]
  | Skipped -> Json.Str "skipped"

let balance_json b =
  Json.Obj
    [
      ( "busy_seconds",
        Json.List (Array.to_list (Array.map (fun s -> Json.Float s) b.busy)) );
      ("busy_max", Json.Float b.busy_max);
      ("busy_min", Json.Float b.busy_min);
      ("busy_mean", Json.Float b.busy_mean);
      ("idle_fraction", Json.Float b.idle_fraction);
      ( "per_phase_idle",
        Json.Obj
          (List.map (fun (l, idle) -> (l, Json.Float idle)) b.per_phase_idle)
      );
    ]

let prediction_json p =
  Json.Obj
    (List.concat
       [
         [ ("cost_source", Json.Str p.cost_source) ];
         [ ("predicted_s", Json.Float p.total_predicted_s) ];
         opt (fun a -> ("actual_s", Json.Float a)) p.total_actual_s;
         opt (fun e -> ("rel_error", Json.Float e)) p.rel_error;
         [
           ( "per_phase",
             Json.List
               (List.map
                  (fun pp ->
                    Json.Obj
                      (List.concat
                         [
                           [ ("label", Json.Str pp.p_label) ];
                           [ ("predicted_s", Json.Float pp.predicted_s) ];
                           opt (fun a -> ("actual_s", Json.Float a)) pp.actual_s;
                           opt
                             (fun e -> ("rel_error", Json.Float e))
                             pp.p_rel_error;
                         ]))
                  p.per_phase) );
         ];
       ])

let gcstats_json (g : Obs.Gcstats.t) =
  Json.Obj
    [
      ("minor_words", Json.Float g.Obs.Gcstats.minor_words);
      ("promoted_words", Json.Float g.Obs.Gcstats.promoted_words);
      ("major_words", Json.Float g.Obs.Gcstats.major_words);
      ("minor_collections", Json.Int g.Obs.Gcstats.minor_collections);
      ("major_collections", Json.Int g.Obs.Gcstats.major_collections);
      ("compactions", Json.Int g.Obs.Gcstats.compactions);
      ("allocated_words", Json.Float (Obs.Gcstats.allocated_words g));
    ]

let metrics_json (m : Obs.Metrics.t) =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (name, v) -> (name, Json.Int v)) m.Obs.Metrics.counters)
      );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Json.Obj
                   [
                     ("count", Json.Int h.Obs.Histogram.count);
                     ("sum", Json.Int h.Obs.Histogram.sum);
                     ("p50", Json.Float (Obs.Histogram.percentile h 0.5));
                     ("p99", Json.Float (Obs.Histogram.percentile h 0.99));
                     ( "buckets",
                       Json.Obj
                         (List.map
                            (fun (ub, n) -> (string_of_int ub, Json.Int n))
                            h.Obs.Histogram.buckets) );
                   ] ))
             m.Obs.Metrics.histograms) );
    ]

let to_json r =
  Json.Obj
    (List.concat
       [
         [ ("program", Json.Str r.program) ];
         [
           ( "params",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.params) );
         ];
         [ ("strategy", Json.Str r.strategy) ];
         opt (fun why -> ("reason", Json.Str why)) r.reason;
         [
           ( "stages",
             Json.Obj
               (List.map (fun (name, s) -> (name, Json.Float s)) r.timings) );
         ];
         opt (fun n -> ("instances", Json.Int n)) r.n_instances;
         opt (fun n -> ("phases", Json.Int n)) r.n_phases;
         opt (fun s -> ("partition", stats_json s)) r.stats;
         [ ("threads", Json.Int r.threads) ];
         [ ("legality", check_json r.legality) ];
         [ ("semantics", check_json r.semantics) ];
         opt (fun s -> ("seq_seconds", Json.Float s)) r.seq_seconds;
         opt (fun s -> ("par_seconds", Json.Float s)) r.par_seconds;
         opt (fun s -> ("model_makespan", Json.Float s)) r.model_makespan;
         opt
           (fun loads ->
             ( "thread_loads",
               Json.List
                 (Array.to_list (Array.map (fun l -> Json.Int l) loads)) ))
           r.thread_loads;
         (match r.phases with
         | [] -> []
         | ps ->
             [
               ( "phase_profile",
                 Json.List
                   (List.map
                      (fun p ->
                        Json.Obj
                          [
                            ("label", Json.Str p.label);
                            ("instances", Json.Int p.instances);
                            ("units", Json.Int p.units);
                            ("seconds", Json.Float p.seconds);
                            ("busy_seconds", Json.Float p.busy_seconds);
                            ("alloc_words", Json.Float p.alloc_words);
                          ])
                      ps) );
             ]);
         opt (fun b -> ("balance", balance_json b)) r.balance;
         opt (fun p -> ("prediction", prediction_json p)) r.prediction;
         (match r.gc with
         | [] -> []
         | gcs ->
             [
               ( "gc",
                 Json.Obj
                   (List.map (fun (stage, g) -> (stage, gcstats_json g)) gcs)
               );
             ]);
         (match r.metrics with
         | Some m when not (Obs.Metrics.is_empty m) ->
             [ ("metrics", metrics_json m) ]
         | _ -> []);
       ])
