(* Paper Example 3 (Chen & Yew's imperfectly nested loop): statement-level
   recurrence partitioning finds an EMPTY intermediate set, so the whole
   program runs as two fully parallel regions ("two iteration time"),
   against DOACROSS synchronization and inner-loop-only parallelization.

   Run with:  dune exec examples/example3_imperfect.exe *)

module Iset = Presburger.Iset

let () =
  let prog = Loopir.Builtin.example3 in
  print_endline "=== source (paper Example 3) ===";
  print_string (Loopir.Pretty.program_to_string prog);

  (* Statement-level analysis (§3.3): unified index vectors. *)
  let u = Depend.Solve.analyze_unified prog in
  Printf.printf "\nunified space: depth %d, dims (%s)\n"
    u.Depend.Solve.unified.Depend.Space.depth
    (String.concat ", " (Array.to_list u.Depend.Solve.unified.Depend.Space.dims));
  let three = Core.Threeset.compute ~phi:u.Depend.Solve.uphi ~rd:u.Depend.Solve.urd in
  Printf.printf "P2 (intermediate) empty: %b   <- paper: empty, two DOALL parts\n"
    (Iset.is_empty three.Core.Threeset.p2);

  print_endline "\n=== generated statement-level code (P1 then P3) ===";
  let names = Iset.names u.Depend.Solve.uphi in
  print_endline "! ---- P1";
  print_string (Codegen.Emit.doall_of_set ~names three.Core.Threeset.p1);
  print_endline "! ---- P3";
  print_string (Codegen.Emit.doall_of_set ~names three.Core.Threeset.p3);

  (* The exact instance graph confirms the two-step critical path. *)
  let params = [ ("n", 40) ] in
  let c = Core.Dataflow.peel_concrete prog ~params in
  Printf.printf "\nexact dataflow levels at n=40: %d (paper: two iteration time)\n"
    c.Core.Dataflow.steps;

  (* Validation of the two-phase schedule. *)
  let sched = Runtime.Sched.of_fronts c in
  let env = Runtime.Interp.prepare prog ~params in
  Printf.printf "two-phase schedule: legality %s, semantics %s\n"
    (match Runtime.Sched.check_legal sched c.Core.Dataflow.trace with
    | Ok () -> "OK"
    | Error m -> "FAILED: " ^ m)
    (match Runtime.Interp.check_schedule env sched with
    | Ok () -> "OK"
    | Error m -> "FAILED: " ^ m);

  (* Speedups: REC (2 barriers) vs inner-PAR (n barriers) vs DOACROSS. *)
  print_endline "\n=== simulated speedup at n=150 (cf. Figure 3, panel 3) ===";
  let params = [ ("n", 150) ] in
  let c = Core.Dataflow.peel_concrete prog ~params in
  let tr = c.Core.Dataflow.trace in
  let n_seq = Array.length tr.Depend.Trace.instances in
  let rec_sched = Runtime.Sched.of_fronts c in
  let par_sched = Baselines.Innerpar.schedule tr in
  Printf.printf "threads    REC    PAR  DOACROSS  (linear)\n";
  List.iter
    (fun p ->
      let rec_s =
        Runtime.Sim.speedup Runtime.Sim.base ~threads:p ~n_seq rec_sched
      in
      let par_s =
        Runtime.Sim.speedup Runtime.Sim.base ~threads:p ~n_seq par_sched
      in
      let da =
        Baselines.Doacross.pipeline tr ~threads:p
          ~w_iter:Runtime.Sim.base.Runtime.Sim.w_iter ~delay_factor:0.5
      in
      let da_s =
        Runtime.Sim.seq_time Runtime.Sim.base n_seq /. da.Baselines.Doacross.makespan
      in
      Printf.printf "   %d     %5.2f  %5.2f   %5.2f     (%d)\n" p rec_s par_s
        da_s p)
    [ 1; 2; 3; 4 ]
