type cost = {
  w_iter : float;
  code_factor : float;
  fork : float;
  barrier : float;
  bound_eval : float;
}

let base =
  { w_iter = 1.0; code_factor = 1.0; fork = 20.0; barrier = 30.0; bound_eval = 8.0 }

let with_factor code_factor = { base with code_factor }

(* Time-dimensioned constants scale together; [code_factor] is a ratio. *)
let scale k c =
  {
    c with
    w_iter = c.w_iter *. k;
    fork = c.fork *. k;
    barrier = c.barrier *. k;
    bound_eval = c.bound_eval *. k;
  }

let base_seconds = scale 1e-6 base

let lpt_makespan p durations =
  if p <= 0 then invalid_arg "Sim.lpt_makespan: threads";
  let loads = Array.make p 0.0 in
  let sorted = Array.copy durations in
  Array.sort (fun a b -> compare b a) sorted;
  Array.iter
    (fun d ->
      let best = ref 0 in
      for k = 1 to p - 1 do
        if loads.(k) < loads.(!best) then best := k
      done;
      loads.(!best) <- loads.(!best) +. d)
    sorted;
  Array.fold_left Float.max 0.0 loads

type aphase = ADoall of int | ATasks of int array

type asched = aphase list

let abstract_phase p =
  if Sched.is_doall p then ADoall (Sched.phase_size p)
  else ATasks (Array.init (Sched.n_tasks p) (Sched.task_length p))

let abstract s = List.map abstract_phase (Sched.phase_list s)

let aphase_time c ~threads shape =
  let per_iter = c.w_iter *. c.code_factor in
  let work =
    match shape with
    | ADoall n -> float_of_int ((n + threads - 1) / threads) *. per_iter
    | ATasks sizes ->
        lpt_makespan threads
          (Array.map (fun n -> float_of_int n *. per_iter) sizes)
  in
  c.fork +. (c.bound_eval *. float_of_int threads) +. work +. c.barrier

let phase_time c ~threads phase =
  aphase_time c ~threads (abstract_phase phase)

(* How many blocks a DOALL phase of [n] iterations should be split into:
   as many as the work can amortize (each chunk must be worth several
   times the per-phase fork+barrier overhead), capped at [8 × threads]
   (queue traffic stays negligible) and at [n].  The floor is one block:
   a phase too small to pay for a second chunk is not split, and
   {!Exec} runs it on the calling domain.  Sequential runs get a single
   block. *)
let doall_chunk_count c ~threads ~n =
  if n <= 0 then 0
  else if threads <= 1 || n = 1 then 1
  else begin
    let per_iter = c.w_iter *. c.code_factor in
    let overhead = Float.max 1e-12 (c.fork +. c.barrier) in
    let affordable =
      Float.min
        (float_of_int (8 * threads))
        (float_of_int n *. per_iter /. (4.0 *. overhead))
    in
    min n (max 1 (int_of_float affordable))
  end

let time c ~threads s =
  List.fold_left
    (fun acc p -> acc +. phase_time c ~threads p)
    0.0 (Sched.phase_list s)

let seq_time c n = float_of_int n *. c.w_iter

let speedup c ~threads ~n_seq s = seq_time c n_seq /. time c ~threads s

let time_abstract c ~threads s =
  List.fold_left (fun acc p -> acc +. aphase_time c ~threads p) 0.0 s

let speedup_abstract c ~threads ~n_seq s =
  seq_time c n_seq /. time_abstract c ~threads s

(* ---- predicted-vs-actual accounting ---------------------------------- *)

(* Naming convention [runtime.sim.*]: one [predictions] tick per schedule
   predicted before execution, one [calibrations] tick per fitted cost,
   and the realized |predicted − actual| / actual (in percent) observed
   into [rel_error_pct] by whoever later measures the run. *)
let predictions_counter = Obs.Counter.make "runtime.sim.predictions"
let calibrations_counter = Obs.Counter.make "runtime.sim.calibrations"
let rel_error_hist = Obs.Histogram.make "runtime.sim.rel_error_pct"

let predict c ~threads s =
  Obs.Counter.incr predictions_counter;
  List.map
    (fun p -> (Sched.phase_label p, phase_time c ~threads p))
    (Sched.phase_list s)

let observe_rel_error e =
  if Float.is_finite e && e >= 0.0 then
    Obs.Histogram.observe rel_error_hist
      (int_of_float (Float.min 1e6 (e *. 100.0)))

type sample = {
  s_threads : int;
  s_shape : aphase;
  s_busy : float;
  s_wall : float;
}

let aphase_size = function
  | ADoall n -> n
  | ATasks sizes -> Array.fold_left ( + ) 0 sizes

(* Two-step fit of the cost constants from measured phases, in seconds:
   [w_iter] from the busy time (which excludes barrier waits, so it is a
   pure per-iteration execution cost), then the per-phase overhead
   (fork + barrier) as the mean wall-time residual over the fitted work
   makespan.  [bound_eval] is folded into that overhead (fitting its
   per-thread slope would need runs at several thread counts), and
   [code_factor] stays 1: the fit absorbs the scheme's real generated
   code into [w_iter]. *)
let calibrate samples =
  let iters =
    List.fold_left (fun acc s -> acc + aphase_size s.s_shape) 0 samples
  in
  let busy = List.fold_left (fun acc s -> acc +. s.s_busy) 0.0 samples in
  if iters <= 0 || busy <= 0.0 then None
  else begin
    let w_iter = busy /. float_of_int iters in
    let work_only =
      { w_iter; code_factor = 1.0; fork = 0.0; barrier = 0.0; bound_eval = 0.0 }
    in
    let residual s =
      Float.max 0.0
        (s.s_wall -. aphase_time work_only ~threads:(max 1 s.s_threads) s.s_shape)
    in
    let overhead =
      List.fold_left (fun acc s -> acc +. residual s) 0.0 samples
      /. float_of_int (List.length samples)
    in
    Obs.Counter.incr calibrations_counter;
    Some
      {
        w_iter;
        code_factor = 1.0;
        fork = overhead /. 2.0;
        barrier = overhead /. 2.0;
        bound_eval = 0.0;
      }
  end

let pipeline_time c ~threads ~stages ~stage_work ~delay =
  if stages <= 0 then 0.0
  else
    (* Stage k may start no earlier than k·delay and no earlier than the
       finish of the previous stage on the same processor. *)
    let proc_free = Array.make (max threads 1) 0.0 in
    let finish = ref 0.0 in
    for k = 0 to stages - 1 do
      let p = k mod max threads 1 in
      let start = Float.max proc_free.(p) (float_of_int k *. delay) in
      let stop = start +. stage_work in
      proc_free.(p) <- stop;
      if stop > !finish then finish := stop
    done;
    c.fork +. !finish +. c.barrier
