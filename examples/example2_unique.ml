(* Paper Example 2 (Ju & Chaudhary's loop): REC vs the UNIQUE-set
   partitioning.  Reproduces the paper's claims: at N = 12 the intermediate
   set is the single iteration (2,6) (so the WHILE loop disappears), REC
   yields 3 fully parallel regions while UNIQUE needs 5 with a sequential
   third.

   Run with:  dune exec examples/example2_unique.exe *)

module Iset = Presburger.Iset

let () =
  let prog = Loopir.Builtin.example2 in
  print_endline "=== source (paper Example 2) ===";
  print_string (Loopir.Pretty.program_to_string prog);

  match Pipeline.Driver.classify prog with
  | Ok (Pipeline.Plan.Rec_chains rp) ->
      let three = rp.Core.Partition.three in
      let p2_12 = Iset.points (Iset.bind_params three.Core.Threeset.p2 [| 12 |]) in
      Printf.printf "\nintermediate set at N=12: {%s}   (paper: {(2,6)})\n"
        (String.concat "; "
           (List.map (fun p -> Printf.sprintf "(%d,%d)" p.(0) p.(1)) p2_12));

      let c = Core.Partition.materialize_rec rp ~params:[| 12 |] in
      Printf.printf "REC: 3 regions — P1 %d ∥, chains %d, P3 %d ∥ (144 total)\n"
        (Core.Points.length c.Core.Partition.p1_pts)
        (Core.Chain.total_points c.Core.Partition.chains)
        (Core.Points.length c.Core.Partition.p3_pts);
      (match c.Core.Partition.theorem_bound with
      | Some b ->
          Printf.printf "Theorem 1: a = |det T| = %g, chains ≤ %d iterations\n"
            c.Core.Partition.growth b
      | None -> ());

      (* UNIQUE *)
      let a = rp.Core.Partition.simple in
      let u = Baselines.Unique.partition a ~three in
      Printf.printf "\nUNIQUE: %d non-empty regions at N=12 (3rd sequential):\n"
        (Baselines.Unique.n_regions u ~params:[| 12 |]);
      List.iter
        (fun (name, set) ->
          Printf.printf "  %-12s %3d iterations\n" name
            (List.length (Iset.points (Iset.bind_params set [| 12 |]))))
        [
          ("head-flow", u.Baselines.Unique.head_flow);
          ("head-rest", u.Baselines.Unique.head_rest);
          ("mid (seq)", u.Baselines.Unique.mid);
          ("tail-anti", u.Baselines.Unique.tail_anti);
          ("tail-rest", u.Baselines.Unique.tail_rest);
        ];

      (* Both schedules are valid; REC has fewer phases. *)
      let params = [ ("n", 12) ] in
      let env = Runtime.Interp.prepare prog ~params in
      let tr = Depend.Trace.build prog ~params in
      let check name sched =
        Printf.printf "%s: %d phases, legality %s, semantics %s\n" name
          (Runtime.Sched.n_phases sched)
          (match Runtime.Sched.check_legal sched tr with
          | Ok () -> "OK"
          | Error m -> "FAILED: " ^ m)
          (match Runtime.Interp.check_schedule env sched with
          | Ok () -> "OK"
          | Error m -> "FAILED: " ^ m)
      in
      print_newline ();
      check "REC   " (Runtime.Sched.of_rec ~stmt:0 c);
      check "UNIQUE" (Baselines.Unique.schedule u ~stmt:0 ~params:[| 12 |]);

      (* Simulated speedups at the paper's N = 300. *)
      print_endline "\n=== simulated speedup at N=300 (cf. Figure 3, panel 2) ===";
      let cbig = Core.Partition.materialize_rec_scan rp ~params:[| 300 |] in
      let rec_sched = Runtime.Sched.of_rec ~stmt:0 cbig in
      let uniq_sched = Baselines.Unique.schedule u ~stmt:0 ~params:[| 300 |] in
      let n_seq = 300 * 300 in
      Printf.printf "threads    REC  UNIQUE  (linear)\n";
      List.iter
        (fun p ->
          Printf.printf "   %d      %5.2f  %5.2f   (%d)\n" p
            (Runtime.Sim.speedup (Runtime.Sim.with_factor 0.8) ~threads:p
               ~n_seq rec_sched)
            (Runtime.Sim.speedup (Runtime.Sim.with_factor 0.8) ~threads:p
               ~n_seq uniq_sched)
            p)
        [ 1; 2; 3; 4 ]
  | _ -> print_endline "unexpected: example 2 should take the REC branch"
