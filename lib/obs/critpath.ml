type unit_kind = Chain | Block

type task = {
  kind : unit_kind;
  id : int;
  len : int;
  tid : int;
  start_ns : int64;
  dur_ns : int64;
}

type barrier = {
  label : string;
  start_ns : int64;
  wall_ns : int64;
  n_tasks : int;
  n_domains : int;
  busy_ns : int64;
  idle_fraction : float;
  straggler : task option;
  crit_ns : int64;
  longest_len : int;
}

type t = {
  threads : int;
  barriers : barrier list;
  wall_ns : int64;
  critical_ns : int64;
  critical_fraction : float;
  longest_chain : int option;
}

let clamp01 x =
  if Float.is_finite x then Float.max 0.0 (Float.min 1.0 x) else 0.0

let phase_of_span (s : Event.event) =
  let n = String.length s.name in
  if n > 6 && String.sub s.name 0 6 = "phase:" then
    Some (String.sub s.name 6 (n - 6))
  else None

let task_of_span (s : Event.event) =
  if s.name <> "task" then None
  else
    let arg k =
      match List.assoc_opt k s.fields with
      | Some (Event.Str v) -> Some v
      | _ -> None
    in
    let int_arg k = Option.bind (arg k) int_of_string_opt in
    match arg "phase" with
    | None -> None
    | Some label ->
        let len = Option.value (int_arg "len") ~default:0 in
        let mk kind id =
          ( label,
            {
              kind;
              id;
              len;
              tid = s.tid;
              start_ns = s.t_ns;
              dur_ns = s.dur_ns;
            } )
        in
        (match (int_arg "chain", int_arg "block") with
        | Some id, _ -> Some (mk Chain id)
        | None, Some id -> Some (mk Block id)
        | None, None -> None)

let end_ns (t : task) = Int64.add t.start_ns t.dur_ns

let chain_ratio_pct = Counter.make "runtime.sched.longest_chain_ratio_pct"

let observe_chain_ratio ~measured ~bound =
  if measured > 0 && bound > 0 then
    Counter.add chain_ratio_pct (100 * measured / bound)

let of_spans ?threads ?theorem_bound spans =
  let phases =
    List.filter_map
      (fun s -> Option.map (fun label -> (label, s)) (phase_of_span s))
      spans
  in
  let phases = Array.of_list phases in
  let groups = Array.map (fun _ -> []) phases in
  let all_tasks = List.filter_map task_of_span spans in
  (* Attach each task to the innermost (latest-starting) phase span with
     its label whose window contains the task start: label match alone
     would conflate repeated labels (many runs through one log). *)
  List.iter
    (fun (label, (tk : task)) ->
      let best = ref (-1) in
      Array.iteri
        (fun i (plabel, (p : Event.event)) ->
          if
            plabel = label
            && p.Event.t_ns <= tk.start_ns
            && tk.start_ns <= Int64.add p.Event.t_ns p.Event.dur_ns
            && (!best < 0
               || (snd phases.(!best)).Event.t_ns <= p.Event.t_ns)
          then best := i)
        phases;
      if !best >= 0 then groups.(!best) <- tk :: groups.(!best))
    all_tasks;
  let groups = Array.map List.rev groups in
  let distinct_tids ts =
    List.length (List.sort_uniq compare (List.map (fun t -> t.tid) ts))
  in
  let threads =
    match threads with
    | Some t when t >= 1 -> t
    | _ -> max 1 (Array.fold_left (fun m ts -> max m (distinct_tids ts)) 1 groups)
  in
  let barriers =
    Array.to_list
      (Array.mapi
         (fun i (label, (p : Event.event)) ->
           let ts = groups.(i) in
           let busy_ns =
             List.fold_left (fun acc t -> Int64.add acc t.dur_ns) 0L ts
           in
           let straggler =
             List.fold_left
               (fun acc t ->
                 match acc with
                 | Some s when end_ns s >= end_ns t -> acc
                 | _ -> Some t)
               None ts
           in
           let wall_ns = p.Event.dur_ns in
           let crit_ns =
             match straggler with
             | None -> wall_ns
             | Some s ->
                 Int64.max 0L (Int64.sub (end_ns s) p.Event.t_ns)
           in
           let idle_fraction =
             if Int64.compare wall_ns 0L <= 0 then 0.0
             else
               clamp01
                 (1.0
                 -. Int64.to_float busy_ns
                    /. (float_of_int threads *. Int64.to_float wall_ns))
           in
           {
             label;
             start_ns = p.Event.t_ns;
             wall_ns;
             n_tasks = List.length ts;
             n_domains = distinct_tids ts;
             busy_ns;
             idle_fraction;
             straggler;
             crit_ns;
             longest_len = List.fold_left (fun m t -> max m t.len) 0 ts;
           })
         phases)
  in
  let wall_ns =
    List.fold_left (fun acc (b : barrier) -> Int64.add acc b.wall_ns) 0L barriers
  in
  let critical_ns =
    List.fold_left (fun acc (b : barrier) -> Int64.add acc b.crit_ns) 0L barriers
  in
  let critical_fraction =
    if Int64.compare wall_ns 0L <= 0 then 0.0
    else clamp01 (Int64.to_float critical_ns /. Int64.to_float wall_ns)
  in
  let longest_chain =
    List.fold_left
      (fun acc (_, t) ->
        if t.kind <> Chain then acc
        else
          match acc with
          | Some l when l >= t.len -> acc
          | _ -> Some t.len)
      None all_tasks
  in
  (match (longest_chain, theorem_bound) with
  | Some l, Some b -> observe_chain_ratio ~measured:l ~bound:b
  | _ -> ());
  { threads; barriers; wall_ns; critical_ns; critical_fraction; longest_chain }

(* ---- text rendering -------------------------------------------------- *)

let ms ns = Int64.to_float ns /. 1e6

let kind_name = function Chain -> "chain" | Block -> "block"

let to_text ?theorem_bound t =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "critical path : %.3fms of %.3fms wall (%.1f%%), %d barrier(s), %d thread(s)"
    (ms t.critical_ns) (ms t.wall_ns)
    (100.0 *. t.critical_fraction)
    (List.length t.barriers) t.threads;
  line "%-14s %10s %6s %4s %6s   %s" "barrier" "wall(ms)" "tasks" "dom"
    "idle%" "straggler";
  List.iter
    (fun b ->
      let straggler =
        match b.straggler with
        | None -> "-"
        | Some s ->
            Printf.sprintf "%s %d (len %d, %.3fms, tid %d)" (kind_name s.kind)
              s.id s.len (ms s.dur_ns) s.tid
      in
      line "%-14s %10.3f %6d %4d %6.1f   %s" b.label (ms b.wall_ns) b.n_tasks
        b.n_domains
        (100.0 *. b.idle_fraction)
        straggler)
    t.barriers;
  (match (t.longest_chain, theorem_bound) with
  | Some l, Some b ->
      line "longest chain : %d point(s) measured vs Theorem 1 bound %d%s" l b
        (if l <= b then "" else "  (EXCEEDS the bound!)")
  | Some l, None -> line "longest chain : %d point(s) measured" l
  | None, _ -> ());
  Buffer.contents buf
